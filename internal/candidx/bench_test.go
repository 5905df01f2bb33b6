package candidx

import (
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/simrand"
)

// benchBrands deterministically generates n ASCII LDH brand labels at the
// catalog scale the index is specified for.
func benchBrands(n int) []brands.Brand {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	src := simrand.New(0xB_E4C4)
	list := make([]brands.Brand, 0, n)
	for i := 0; i < n; i++ {
		m := 4 + src.Intn(14)
		label := make([]byte, m)
		for j := range label {
			label[j] = letters[src.Intn(len(letters))]
		}
		list = append(list, brands.Brand{Domain: string(label) + ".com", Rank: i + 1})
	}
	return list
}

// benchLabels derives a lookup corpus spanning the probe classes: exact
// brand labels, single- and double-unfoldable homograph shapes, length
// edits, and clean misses.
func benchLabels(list []brands.Brand, n int) []string {
	src := simrand.New(0x100C09)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		runes := []rune(list[src.Intn(len(list))].Label())
		switch src.Intn(5) {
		case 0: // exact
		case 1: // one unfoldable substitution
			runes[src.Intn(len(runes))] = 'ä'
		case 2: // two unfoldable substitutions
			runes[src.Intn(len(runes))] = 'ö'
			runes[src.Intn(len(runes))] = 'а'
		case 3: // length edit
			runes = append(runes, 'ő')
		case 4: // ASCII near-miss
			runes[src.Intn(len(runes))] = rune('a' + src.Intn(26))
		}
		out = append(out, string(runes))
	}
	return out
}

// warmLookup builds an index over n generated brands and a mixed probe
// corpus, with the reused Probe already grown to its high-water size.
func warmLookup(tb testing.TB, n int) (*Index, []string, *Probe) {
	tb.Helper()
	ix, err := Build(benchBrands(n), BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	labels := benchLabels(ix.Brands(), 512)
	p := &Probe{}
	for _, l := range labels {
		ix.Candidates(l, p)
	}
	return ix, labels, p
}

// TestCandidatesZeroAlloc pins the lookup's allocation contract: with a
// reused Probe, Candidates allocates nothing for any probe class.
func TestCandidatesZeroAlloc(t *testing.T) {
	ix, labels, p := warmLookup(t, 1000)
	i := 0
	if allocs := testing.AllocsPerRun(len(labels), func() {
		ix.Candidates(labels[i%len(labels)], p)
		i++
	}); allocs != 0 {
		t.Fatalf("Candidates with a reused Probe allocates %v per lookup, want 0", allocs)
	}
}

// BenchmarkIndexLookup measures steady-state Candidates over a 10k-brand
// index with a mixed probe corpus. `make bench-gates` holds it to
// >= 100k lookups/s.
func BenchmarkIndexLookup(b *testing.B) {
	ix, labels, p := warmLookup(b, 10000)
	var bytes int64
	for _, l := range labels {
		bytes += int64(len(l))
	}
	b.SetBytes(bytes / int64(len(labels)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Candidates(labels[i%len(labels)], p)
	}
}

// BenchmarkIndexBuild times one build of the top-1000 catalog, the index
// every detector built without an index file compiles at start-up.
// `make bench-gates` holds it to >= 10 builds/s.
func BenchmarkIndexBuild(b *testing.B) {
	list := brands.TopK(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(list, BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
