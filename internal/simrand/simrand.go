// Package simrand provides a deterministic pseudo-random number generator
// and the statistical samplers used by the synthetic data generators.
//
// All generators in this repository are seeded explicitly so that the full
// synthetic registry — and therefore every table and figure reproduced from
// it — is bit-for-bit reproducible across runs and platforms. The core
// generator is splitmix64, chosen for its tiny state, full 64-bit period per
// seed and statistical quality sufficient for workload synthesis.
package simrand

import (
	"math"
)

// Source is a deterministic splitmix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0. Source is not safe for
// concurrent use; derive independent sources with Fork for parallel work.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent child generator from the current state and a
// stream label. Two forks with different labels produce uncorrelated
// sequences, and forking does not disturb the parent's sequence.
func (s *Source) Fork(label string) *Source {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return &Source{state: mix(s.state) ^ h}
}

// mix is the splitmix64 output function applied to a raw state value.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform. One variate per call; the pair's second value is discarded to
// keep the generator state a pure function of call count.
func (s *Source) NormFloat64() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma). Used for query volumes and active times,
// which are heavy-tailed in the paper's passive-DNS feeds.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function (Fisher–Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
