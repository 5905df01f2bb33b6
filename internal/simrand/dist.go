package simrand

import (
	"math"
	"sort"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the cumulative distribution so sampling is a
// binary search; this matches the registrar/registrant concentration model
// where a few heads own most of the mass (paper: top-10 registrars hold 55%
// of IDNs).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s. It panics if
// n <= 0 or s < 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("simrand: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// Next returns the next rank in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Weighted samples indices in proportion to a fixed weight vector. Used for
// the language mix, TLD mix and content-category mixes, which the paper
// reports as explicit percentage tables.
type Weighted struct {
	src *Source
	cdf []float64
}

// NewWeighted builds a sampler over the given non-negative weights. It
// panics if weights is empty or sums to zero.
func NewWeighted(src *Source, weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("simrand: NewWeighted with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("simrand: NewWeighted with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("simrand: NewWeighted with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{src: src, cdf: cdf}
}

// Next returns the next sampled index.
func (w *Weighted) Next() int {
	u := w.src.Float64()
	return sort.SearchFloat64s(w.cdf, u)
}
