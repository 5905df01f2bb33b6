package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4), exclusive method.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("relSpread = %v, want 1", s)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(s, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 || median([]float64{4, 1, 3}) != 3 {
		t.Error("empty input or median")
	}
}

func TestSegmentRatesCutByCompletionOrder(t *testing.T) {
	// 20 operations of one domain finishing 1 ms apart, recorded out of
	// order; then one slow segment.
	ops := make([]op, 20)
	results := make([]result, 20)
	for i := range ops {
		ops[i] = op{Domains: []string{"a.com"}}
		results[(i*7)%20] = result{End: int64(i+1) * 1e6, OK: true}
	}
	rates := segmentRates(ops, results)
	if len(rates) != segments {
		t.Fatalf("%d segments, want %d", len(rates), segments)
	}
	for _, r := range rates {
		if !near(r, 1000) {
			t.Fatalf("rates %v, want 1000/s each", rates)
		}
	}
	for i := range results {
		if results[i].End > 18e6 {
			results[i].End += 98e6 // the last two finish 100 ms late
		}
	}
	rates = segmentRates(ops, results)
	if !near(median(rates), 1000) || rates[segments-1] > 25 {
		t.Fatalf("one slow segment moved the median: %v", rates)
	}
}
