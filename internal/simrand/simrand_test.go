package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork("whois")
	c2 := parent.Fork("pdns")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forks with different labels produced identical first value")
	}
	// Forking must not disturb the parent sequence.
	p1 := New(7)
	p1.Fork("whois")
	p1.Fork("pdns")
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("fork disturbed parent state")
	}
}

func TestForkSameLabelSameStream(t *testing.T) {
	a := New(7).Fork("x")
	b := New(7).Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same label forks differ")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(4)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d far from expected %d", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(6)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(9)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += s.Exponential(50)
	}
	mean := sum / trials
	if mean < 48 || mean > 52 {
		t.Errorf("exponential mean = %v, want ~50", mean)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(12)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements, sum=%d", sum)
	}
}

func TestZipfConcentration(t *testing.T) {
	src := New(13)
	z := NewZipf(src, 700, 1.1)
	const trials = 100000
	counts := make([]int, 700)
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	// With s=1.1 over 700 ranks, top-10 should capture a large plurality —
	// the same concentration regime as the paper's registrar table.
	if frac := float64(top10) / trials; frac < 0.35 || frac > 0.75 {
		t.Errorf("top-10 fraction = %v, want mid-range concentration", frac)
	}
	if counts[0] < counts[100] {
		t.Error("rank 0 should dominate rank 100")
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(New(14), 5, 1)
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v < 0 || v >= 5 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestWeightedProportions(t *testing.T) {
	src := New(15)
	w := NewWeighted(src, []float64{52, 13, 9, 26})
	const trials = 100000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		counts[w.Next()]++
	}
	wantFrac := []float64{0.52, 0.13, 0.09, 0.26}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-wantFrac[i]) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", i, got, wantFrac[i])
		}
	}
}

func TestWeightedZeroWeightNeverSampled(t *testing.T) {
	w := NewWeighted(New(16), []float64{0, 1, 0})
	for i := 0; i < 1000; i++ {
		if v := w.Next(); v != 1 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", weights)
				}
			}()
			NewWeighted(New(1), weights)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
