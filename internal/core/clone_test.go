package core

// Tests for the PR-2 hot-path plumbing: the prerendered brand raster
// cache, detector Clone semantics, and the zero-allocation steady-state
// Score contract the benchmarks enforce.

import (
	"math/rand"
	"sync"
	"testing"

	"idnlab/internal/brands"
)

func TestCloneScoresIdentically(t *testing.T) {
	proto := NewHomographDetector(1000)
	clone := proto.Clone()
	pairs := [][2]string{
		{"facebook", "facebook"},
		{"facebооk", "facebook"},
		{"gõogle", "google"},
		{"amazon", "google"},
		{"somethingelse", "notabrand"}, // off-brand reference path
	}
	for _, p := range pairs {
		if a, b := proto.Score(p[0], p[1]), clone.Score(p[0], p[1]); a != b {
			t.Errorf("Score(%q, %q): proto %v != clone %v", p[0], p[1], a, b)
		}
	}
}

func TestClonesAreConcurrencySafe(t *testing.T) {
	proto := NewHomographDetector(1000)
	corpus := testDS.IDNs
	if len(corpus) > 400 {
		corpus = corpus[:400]
	}
	want := proto.Clone().Detect(corpus)
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]HomographMatch, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := proto.Clone()
			// Shuffle per goroutine so clones interleave differently;
			// Detect sorts, so output order stays canonical.
			local := append([]string(nil), corpus...)
			r := rand.New(rand.NewSource(int64(g)))
			r.Shuffle(len(local), func(i, j int) { local[i], local[j] = local[j], local[i] })
			results[g] = d.Detect(local)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if len(got) != len(want) {
			t.Fatalf("goroutine %d: %d matches, want %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("goroutine %d match %d: %+v != %+v", g, i, got[i], want[i])
			}
		}
	}
}

// TestScoreSteadyStateZeroAlloc pins the headline allocation contract:
// once the detector's scratch buffers are warm, scoring a candidate
// against a cached brand performs zero allocations.
func TestScoreSteadyStateZeroAlloc(t *testing.T) {
	det := NewHomographDetector(1000)
	labels := []string{"facebооk", "facebool", "fаcebook", "facebôok"}
	det.Score(labels[0], "facebook") // warm the scratch
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		_ = det.Score(labels[i%len(labels)], "facebook")
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Score allocates %v per run, want 0", allocs)
	}
}

// TestScoreOffBrandReference exercises the uncached-reference fallback:
// scoring against a label outside the brand set must still work and must
// not poison the brand cache.
func TestScoreOffBrandReference(t *testing.T) {
	det := NewHomographDetector(100)
	v := det.Score("exàmple", "example") // "example" is not a top-100 brand label here
	if v <= 0.9 || v >= 1 {
		t.Errorf("off-brand score = %v, want single-mark band", v)
	}
	// And a cached brand still scores identically to a fresh detector.
	got := det.Score("facebооk", "facebook")
	want := NewHomographDetector(100).Score("facebооk", "facebook")
	if got != want {
		t.Errorf("brand cache poisoned: %v != %v", got, want)
	}
}

// TestDetectOneMatchesPrePRSemantics pins the default detector against
// the reference sweep through the cached-brand renderer: over the first
// 300 corpus IDNs the index probe and the brute sweep over the same
// top-1000 catalog return identical matches, SSIM bits included.
func TestDetectOneMatchesPrePRSemantics(t *testing.T) {
	corpus := testDS.IDNs
	if len(corpus) > 300 {
		corpus = corpus[:300]
	}
	indexed := NewHomographDetector(1000).Detect(corpus)
	sweep := NewHomographDetector(0, WithBrands(brands.TopK(1000))).Detect(corpus)
	if len(indexed) != len(sweep) {
		t.Fatalf("index found %d matches, sweep %d", len(indexed), len(sweep))
	}
	for i := range sweep {
		if !sameMatch(indexed[i], sweep[i]) {
			t.Errorf("index %+v != sweep %+v", indexed[i], sweep[i])
		}
	}
}
