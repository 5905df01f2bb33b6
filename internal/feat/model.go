package feat

import (
	"encoding/binary"
	"math"
	"sort"
)

// Model is a trained statistical classifier: a 17-weight logistic layer
// over the shape features plus two trained tables — an interned label
// bigram log-odds table (the langid dense-table technique: sorted
// packed keys, binary-searched) and a per-TLD-class prior. A Model is
// immutable and safe for unbounded concurrent use; the serving layer
// shares one instance across every detector clone.
//
// Scoring runs in the raw-margin domain end to end: both decision
// thresholds (the flag threshold and the prefilter floor) are stored as
// raw margins, so the steady-state path never calls math.Exp and never
// allocates. Prob converts a raw margin to a probability for display.
type Model struct {
	// data retains the full IDNSTAT1 blob; the bigram key and value
	// sections are read from it in place (zero-copy, like candidx).
	data []byte

	seed         uint64
	bias         float64
	flagRaw      float64 // raw margin at/above which the verdict flags
	prefilterRaw float64 // raw margin at/above which the SSIM path runs
	weights      [NumFeatures]float64
	tldPrior     [NumTLDClasses]float64

	keyOff, valOff int // byte offsets of the bigram sections in data
	nBigrams       int

	// Lookup acceleration built at load (the blob stays the only
	// serialization format). ascii is the langid dense-table move
	// applied to bigrams: both halves of most label bigrams are ASCII
	// (including the boundary sentinels), so a 128×128 direct-index
	// plane answers the common case in one load. Non-ASCII pairs go
	// through an open-addressing hash table (Fibonacci hashing, linear
	// probing at ≤50% load) — 1–2 probes instead of a log₂(n) binary
	// search over the serialized key section.
	ascii  []float64
	htKeys []uint64
	htVals []float64
	htMask uint64
}

// Seed returns the training seed recorded in the model.
func (m *Model) Seed() uint64 { return m.seed }

// BigramCount returns the number of interned bigrams.
func (m *Model) BigramCount() int { return m.nBigrams }

// FlagRaw returns the raw-margin flag threshold (train-time F1-optimal).
func (m *Model) FlagRaw() float64 { return m.flagRaw }

// PrefilterRaw returns the raw-margin prefilter floor: labels scoring
// below it are shed before the SSIM rescore (chosen at train time for
// ≥ the configured recall on attack populations).
func (m *Model) PrefilterRaw() float64 { return m.prefilterRaw }

// Weights returns a copy of the logistic weights, indexed like
// FeatureNames.
func (m *Model) Weights() [NumFeatures]float64 { return m.weights }

// Bias returns the logistic intercept.
func (m *Model) Bias() float64 { return m.bias }

// Bytes returns the serialized IDNSTAT1 blob backing the model.
func (m *Model) Bytes() []byte { return m.data }

// Bigram boundary sentinels. Control characters cannot appear in a
// validated label, so the markers never collide with label content.
const (
	bigramStart = rune(0x02)
	bigramEnd   = rune(0x03)
)

// bigramKey packs an ordered rune pair into the table key.
func bigramKey(a, b rune) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// bigramLogOdds looks one packed key up in the interned table: ASCII
// pairs (the overwhelming majority of label bigrams) hit the dense
// plane directly; the rest probe the load-time hash table. Unseen
// bigrams are neutral (0) — Laplace smoothing at training time keeps
// seen-bigram odds bounded, so neutrality is the consistent extension.
func (m *Model) bigramLogOdds(key uint64) float64 {
	a, b := key>>32, key&0xffffffff
	if a < asciiPlane && b < asciiPlane {
		return m.ascii[a*asciiPlane+b]
	}
	if m.htKeys == nil {
		return 0
	}
	i := (key * fibMult) >> 32 & m.htMask
	for {
		k := m.htKeys[i]
		if k == key {
			return m.htVals[i]
		}
		if k == 0 {
			// Keys pack two runes ≥ the 0x02 sentinel, so 0 can never
			// be a real key and doubles as the empty-slot marker.
			return 0
		}
		i = (i + 1) & m.htMask
	}
}

// asciiPlane is the side length of the dense ASCII bigram plane.
const asciiPlane = 128

// fibMult is the Fibonacci-hashing multiplier (2^64 / φ, odd).
const fibMult = 0x9e3779b97f4a7c15

// bigramMean averages the trained log-odds over the label's bigrams,
// with start/end boundary markers (a label's first character is as
// informative as its interior — attack splices cluster at edges).
func (m *Model) bigramMean(label string) float64 {
	if m.nBigrams == 0 {
		return 0
	}
	prev := bigramStart
	sum := 0.0
	n := 0
	for _, r := range label {
		sum += m.bigramLogOdds(bigramKey(prev, r))
		n++
		prev = r
	}
	sum += m.bigramLogOdds(bigramKey(prev, bigramEnd))
	n++
	return sum / float64(n)
}

// Featurize fills v with the full feature vector for one label under
// this model's trained tables. label is the Unicode SLD label, aceLabel
// its ACE form, tld the zone without trailing dot. ageDays/hasAge carry
// the registration timeline when the caller has one (corpus scans, the
// eval harness); the online serving path passes (0, false).
func (m *Model) Featurize(label, aceLabel, tld string, ageDays float64, hasAge bool, v *Vector) {
	shape(label, aceLabel, v)
	v[fBigram] = m.bigramMean(label)
	v[fTLDPrior] = m.tldPrior[TLDClass(tld)]
	age := 0.0
	if hasAge {
		age = ageDays / 3650
		if age < 0 {
			age = 0
		} else if age > 1 {
			age = 1
		}
		v[fHasAge] = 1
	} else {
		v[fHasAge] = 0
	}
	v[fAgeDays] = age
}

// ScoreDomain computes the raw logistic margin for one label with a
// known registration timeline. Zero allocations in steady state.
func (m *Model) ScoreDomain(label, aceLabel, tld string, ageDays float64, hasAge bool) float64 {
	var v Vector
	m.Featurize(label, aceLabel, tld, ageDays, hasAge, &v)
	s := m.bias
	for i := 0; i < NumFeatures; i++ {
		s += m.weights[i] * v[i]
	}
	return s
}

// ScoreLabel is ScoreDomain under serving conditions: no registration
// timeline is available at the request boundary. This is the hot-path
// entry point the prefilter gates on.
func (m *Model) ScoreLabel(label, aceLabel, tld string) float64 {
	return m.ScoreDomain(label, aceLabel, tld, 0, false)
}

// Flag reports whether a raw margin is at or above the flag threshold.
func (m *Model) Flag(raw float64) bool { return raw >= m.flagRaw }

// PrefilterPass reports whether a raw margin clears the prefilter floor.
func (m *Model) PrefilterPass(raw float64) bool { return raw >= m.prefilterRaw }

// Prob converts a raw margin to the logistic probability.
func (m *Model) Prob(raw float64) float64 {
	return 1 / (1 + math.Exp(-raw))
}

// Contribution is one feature's share of a flagged verdict's margin.
type Contribution struct {
	// Feature is the FeatureNames entry.
	Feature string `json:"feature"`
	// Value is the feature's extracted value.
	Value float64 `json:"value"`
	// Impact is weight × value — its signed share of the raw margin.
	Impact float64 `json:"impact"`
}

// TopContributions explains a score: the k features with the largest
// absolute impact on the raw margin, largest first. It allocates (one
// slice) and is meant for flagged verdicts and inspection, not the
// steady-state scoring path.
func (m *Model) TopContributions(label, aceLabel, tld string, ageDays float64, hasAge bool, k int) []Contribution {
	var v Vector
	m.Featurize(label, aceLabel, tld, ageDays, hasAge, &v)
	out := make([]Contribution, 0, NumFeatures)
	for i := 0; i < NumFeatures; i++ {
		impact := m.weights[i] * v[i]
		if impact == 0 {
			continue
		}
		out = append(out, Contribution{Feature: FeatureNames[i], Value: v[i], Impact: impact})
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Impact), math.Abs(out[j].Impact)
		if ai != aj {
			return ai > aj
		}
		return out[i].Feature < out[j].Feature
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Bigram is one interned bigram and its trained log-odds. Pair renders
// the boundary sentinels as ^ and $.
type Bigram struct {
	Pair    string
	LogOdds float64
}

// TopBigrams returns the n bigrams with the largest |log-odds|,
// strongest first (ties by pair), read from the blob's key and value
// sections. It allocates and is meant for inspection.
func (m *Model) TopBigrams(n int) []Bigram {
	le := binary.LittleEndian
	out := make([]Bigram, m.nBigrams)
	for i := range out {
		key := le.Uint64(m.data[m.keyOff+8*i:])
		out[i] = Bigram{
			Pair:    renderRune(rune(key>>32)) + renderRune(rune(uint32(key))),
			LogOdds: math.Float64frombits(le.Uint64(m.data[m.valOff+8*i:])),
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].LogOdds), math.Abs(out[j].LogOdds)
		if ai != aj {
			return ai > aj
		}
		return out[i].Pair < out[j].Pair
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func renderRune(r rune) string {
	switch r {
	case bigramStart:
		return "^"
	case bigramEnd:
		return "$"
	}
	return string(r)
}
