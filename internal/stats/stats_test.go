package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2.5, 0.4}, {5, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := e.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if e.Len() != 5 || e.Max() != 5 || e.Mean() != 3 {
		t.Errorf("summary stats wrong: len=%d max=%v mean=%v", e.Len(), e.Max(), e.Mean())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(10) != 0 || e.Mean() != 0 || e.Max() != 0 {
		t.Error("empty ECDF should be all zeros")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(200)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rr.NormFloat64() * 100
		}
		e := NewECDF(sample)
		prev := -1.0
		for x := -300.0; x <= 300; x += 13 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return e.At(e.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	sample := []float64{3, 1, 2}
	e := NewECDF(sample)
	sample[0] = 999
	if e.Max() != 3 {
		t.Error("ECDF aliased caller's slice")
	}
}

func TestLogTicks(t *testing.T) {
	ticks := LogTicks(1, 10000, 5)
	want := []float64{1, 10, 100, 1000, 10000}
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if math.Abs(ticks[i]-want[i])/want[i] > 1e-9 {
			t.Errorf("tick %d = %v, want %v", i, ticks[i], want[i])
		}
	}
	if LogTicks(0, 10, 3) != nil || LogTicks(5, 5, 3) != nil || LogTicks(1, 10, 1) != nil {
		t.Error("invalid inputs should return nil")
	}
}

func TestRenderECDFTable(t *testing.T) {
	out := RenderECDFTable("Fig 2", []float64{1, 10, 100}, []Series{
		{Name: "IDN", Values: []float64{5, 50, 500}},
		{Name: "non-IDN", Values: []float64{200, 300, 400}},
	})
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "IDN") {
		t.Errorf("render missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 3 ticks
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
	// At x=100: IDN has 2/3 of values <= 100, non-IDN 0/3.
	if !strings.Contains(lines[4], "0.667") || !strings.Contains(lines[4], "0.000") {
		t.Errorf("tick row wrong: %q", lines[4])
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram{2015: 3, 2000: 1, 2017: 5}
	if got := h.Keys(); !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Errorf("Keys = %v", got)
	}
}

func TestCumulativeShare(t *testing.T) {
	cs := CumulativeShare([]int{1, 7, 2})
	want := []float64{0.7, 0.9, 1.0}
	for i := range want {
		if math.Abs(cs[i]-want[i]) > 1e-12 {
			t.Errorf("cs[%d] = %v, want %v", i, cs[i], want[i])
		}
	}
	if got := CumulativeShare(nil); len(got) != 0 {
		t.Error("empty input should give empty output")
	}
	if got := CumulativeShare([]int{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Error("all-zero counts should give zero shares")
	}
}

func TestCumulativeShareMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		cs := CumulativeShare(counts)
		prev := 0.0
		for _, v := range cs {
			if v < prev-1e-12 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.5219); got != "52.19%" {
		t.Errorf("Percent = %q", got)
	}
}

func BenchmarkECDFBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	sample := make([]float64, 15000)
	for i := range sample {
		sample[i] = r.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewECDF(sample)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	sample := make([]float64, 15000)
	for i := range sample {
		sample[i] = r.Float64() * 1e6
	}
	e := NewECDF(sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.At(float64(i % 1000000))
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("even distribution Gini = %v, want 0", g)
	}
	g1 := Gini([]int{100, 0, 0, 0})
	if g1 < 0.7 || g1 > 0.76 {
		t.Errorf("max-concentration Gini = %v, want (n-1)/n = 0.75", g1)
	}
	mid := Gini([]int{50, 30, 15, 5})
	if mid <= 0 || mid >= g1 {
		t.Errorf("moderate Gini = %v, should be between 0 and %v", mid, g1)
	}
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestGiniScaleInvariant(t *testing.T) {
	a := Gini([]int{10, 20, 30, 40})
	b := Gini([]int{100, 200, 300, 400})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("Gini not scale-invariant: %v vs %v", a, b)
	}
}
