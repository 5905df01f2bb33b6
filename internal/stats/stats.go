// Package stats provides the statistics layer behind every figure: ECDFs
// (Figures 2, 3, 4, 5, 8), histograms (Figure 1), grouped counters
// (Figure 6, 7) and plain-text rendering of the series so the benchmark
// harness can print the same curves the paper plots.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. The input slice is copied.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x), in [0, 1]. An empty ECDF returns 0 everywhere.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Mean returns the sample mean (0 for an empty sample).
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// LogTicks returns k x-axis positions log-spaced over [lo, hi], the axis
// the paper's figures use for day counts and query volumes. lo must be
// positive and hi > lo; k >= 2.
func LogTicks(lo, hi float64, k int) []float64 {
	if lo <= 0 || hi <= lo || k < 2 {
		return nil
	}
	out := make([]float64, k)
	ratio := math.Log(hi / lo)
	for i := 0; i < k; i++ {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(k-1))
	}
	return out
}

// Series is a named sample for multi-line figure rendering.
type Series struct {
	Name   string
	Values []float64
}

// RenderECDFTable renders named ECDFs as a text table: one row per tick,
// one column per series, values are cumulative fractions. This is the
// textual equivalent of the paper's multi-line ECDF figures.
func RenderECDFTable(title string, ticks []float64, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString("x")
	ecdfs := make([]*ECDF, len(series))
	for i, s := range series {
		ecdfs[i] = NewECDF(s.Values)
		fmt.Fprintf(&b, "\t%s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range ticks {
		fmt.Fprintf(&b, "%.6g", x)
		for _, e := range ecdfs {
			fmt.Fprintf(&b, "\t%.3f", e.At(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Histogram counts values into integer-keyed bins (e.g. years).
type Histogram map[int]int

// Keys returns the bins in ascending order.
func (h Histogram) Keys() []int {
	out := make([]int, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// CumulativeShare returns, for the counts sorted descending, the fraction
// of total mass captured by the top-k entries for each k — the curve of
// Figure 4 ("80% IDNs are hosted in 1,000 /24 segments") and the
// registrar-concentration claims.
func CumulativeShare(counts []int) []float64 {
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, c := range sorted {
		total += c
	}
	out := make([]float64, len(sorted))
	if total == 0 {
		return out
	}
	run := 0
	for i, c := range sorted {
		run += c
		out[i] = float64(run) / float64(total)
	}
	return out
}

// Percent formats a fraction as "12.34%".
func Percent(frac float64) string {
	return fmt.Sprintf("%.2f%%", frac*100)
}

// Gini computes the Gini coefficient of a count vector — a single-number
// summary of the hosting concentration behind Figure 4 (0 = perfectly
// even, →1 = all mass in one bin).
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, counts)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, c := range sorted {
		cum += float64(c)
		weighted += float64(i+1) * float64(c)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
