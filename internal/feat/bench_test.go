package feat

import "testing"

// BenchmarkStatClassify scores one label through the zero-copy model
// under serving conditions, cycling through the held-out corpus so the
// branch mix matches real traffic. `make bench-gates` holds it to ≥1M
// classifications/s; TestScoreLabelAllocs pins 0 allocs/op. The
// measured prefilter pass rate over the cycled set is reported as a
// custom metric, so the shed capacity shows alongside the latency.
func BenchmarkStatClassify(b *testing.B) {
	m, _, exs := trainedModel(b)
	_, eval := Split(exs)
	if len(eval) == 0 {
		b.Fatal("no eval examples")
	}
	passed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &eval[i%len(eval)]
		if m.PrefilterPass(m.ScoreLabel(e.Label, e.ACELabel, e.TLD)) {
			passed++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(passed)/float64(b.N), "pass/op")
	}
}

// BenchmarkStatClassifyNaive is the pre-optimization reference: the
// same features scored through the obvious map-based bigram table
// instead of the in-place binary search.
// The map path allocates nothing either, but pays hash + pointer-chase
// per bigram; the delta is the zero-copy table's win.
func BenchmarkStatClassifyNaive(b *testing.B) {
	m, _, exs := trainedModel(b)
	_, eval := Split(exs)
	if len(eval) == 0 {
		b.Fatal("no eval examples")
	}
	bigrams := naiveBigramMap(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &eval[i%len(eval)]
		naiveScore(m, bigrams, e.Label, e.ACELabel, e.TLD)
	}
}

// BenchmarkStatTrain tracks the full train pipeline at a small scale —
// not gated, just visibility into the offline cost.
func BenchmarkStatTrain(b *testing.B) {
	reg, _, exs, err := TrainCorpus(testSeed, 20, TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	_ = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(exs, TrainConfig{Seed: testSeed}); err != nil {
			b.Fatal(err)
		}
	}
}
