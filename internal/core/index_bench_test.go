package core

import (
	"testing"

	"idnlab/internal/candidx"
	"idnlab/internal/simchar"
	"idnlab/internal/simrand"
)

// indexedCorpus builds an index-backed detector over n generated brands
// and a mixed adversarial label corpus, and runs every label once so the
// detector's scratch is at its high-water size.
func indexedCorpus(tb testing.TB, n int) (*HomographDetector, []NormalizedDomain) {
	tb.Helper()
	src := simrand.New(0x1D9A_7C3E)
	list := genBrandCorpus(src.Fork("brands"), n)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	d := NewHomographDetector(0, WithIndex(ix))
	tab := simchar.Default()
	lsrc := src.Fork("labels")
	var corpus []NormalizedDomain
	for i := 0; i < 64; i++ {
		label := mutateLabel(lsrc, tab, list[lsrc.Intn(len(list))].Label())
		n, err := Normalize(label + ".com")
		if err != nil {
			continue
		}
		corpus = append(corpus, n)
	}
	for _, n := range corpus {
		d.DetectNormalized(n)
	}
	return d, corpus
}

// TestDetectNormalizedIndexedZeroAlloc pins the serving path's
// allocation contract: probe, length filter, bounded rescore and the
// by-value match allocate nothing at steady state.
func TestDetectNormalizedIndexedZeroAlloc(t *testing.T) {
	d, corpus := indexedCorpus(t, 500)
	i := 0
	if allocs := testing.AllocsPerRun(len(corpus), func() {
		d.DetectNormalized(corpus[i%len(corpus)])
		i++
	}); allocs != 0 {
		t.Fatalf("indexed DetectNormalized allocates %v per domain at steady state, want 0", allocs)
	}
}

// BenchmarkDetectNormalized10k measures single-domain homograph detection
// over a 10k-brand catalog on a mixed adversarial label corpus, through
// the candidate index (the production path when an index is loaded).
func BenchmarkDetectNormalized10k(b *testing.B) {
	d, corpus := indexedCorpus(b, 10000)
	var bytes int64
	for _, n := range corpus {
		bytes += int64(len(n.Label))
	}
	b.SetBytes(bytes / int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectNormalized(corpus[i%len(corpus)])
	}
}
