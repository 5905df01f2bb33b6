package core

import (
	"idnlab/internal/candidx"
	"idnlab/internal/feat"
	"idnlab/internal/idna"
)

// Single-domain verdict entry points shared by the corpus scans, the
// CLI (cmd/idndetect) and the online serving layer (internal/serve).
// Normalize is the one door: a caller normalizes exactly once and hands
// the same NormalizedDomain to the cache key and to every detector's
// DetectNormalized; DetectOne is the wrapper that normalizes first.

// NormalizedDomain is a domain normalized once: folded, validated, and
// converted to both its ACE wire form and Unicode display form, with the
// second-level label (the detection unit) extracted. Construct with
// Normalize; the zero value means "invalid".
type NormalizedDomain struct {
	// ACE is the ASCII-compatible-encoding wire form — the canonical
	// cache key (two spellings of the same name, Unicode and Punycode,
	// normalize to the same ACE form).
	ACE string
	// Unicode is the display form.
	Unicode string
	// Label is the second-level label of the Unicode form, the unit both
	// detectors inspect.
	Label string
	// ASCII reports that Label contains no non-ASCII runes; such labels
	// can be neither homographs nor Type-1 semantic IDNs.
	ASCII bool
}

// Normalize folds, validates and converts a domain (given in either
// Unicode or Punycode form) exactly once, producing the shared form every
// downstream consumer — cache, detectors, responses — reuses. It is the
// only place the serving request path pays the IDNA round-trip. A name
// already in canonical form — lowercase ASCII, or lowercase ACE that
// re-encodes to itself — takes idna.Canonical's one pass; every other
// name takes ToUnicode then ToASCII, which Canonical matches exactly.
func Normalize(domain string) (NormalizedDomain, error) {
	ace, uni, ok := idna.Canonical(domain)
	if !ok {
		var err error
		if uni, err = idna.ToUnicode(domain); err != nil {
			return NormalizedDomain{}, err
		}
		if ace, err = idna.ToASCII(uni); err != nil {
			return NormalizedDomain{}, err
		}
	}
	label := idna.SLDLabel(uni)
	return NormalizedDomain{
		ACE:     ace,
		Unicode: uni,
		Label:   label,
		ASCII:   isASCII(label),
	}, nil
}

// Verdict is the combined result of running every online detector over
// one domain — the unit the serving layer caches and returns. With a
// statistical model attached the verdict is a three-detector ensemble:
// the glyph-level homograph detector, the exact-residue semantic
// detector, and the statistical classifier, each with its own match
// field, plus per-detector confidence and an overall suspicion level.
// Without a model every ensemble field stays at its zero value and the
// JSON encoding is byte-identical to the two-detector wire format, so
// pre-ensemble clients and golden tests are unaffected.
type Verdict struct {
	// Domain is the normalized ACE form.
	Domain string `json:"domain"`
	// Unicode is the display form.
	Unicode string `json:"unicode"`
	// IDN reports whether the domain carries at least one
	// internationalized label.
	IDN bool `json:"idn"`
	// Homograph is the homograph detection result, nil when clean.
	Homograph *HomographMatch `json:"homograph,omitempty"`
	// Semantic is the Type-1 semantic detection result, nil when clean.
	Semantic *SemanticMatch `json:"semantic,omitempty"`
	// Statistical is the statistical classifier's match, nil when clean
	// or when no model is attached.
	Statistical *StatMatch `json:"statistical,omitempty"`
	// Confidence carries per-detector confidence; nil without a model.
	Confidence *EnsembleConfidence `json:"confidence,omitempty"`
	// Suspicion is the ensemble's overall level: "high" (a structural
	// detector matched), "medium" (statistical flag only), "low"
	// (passed the prefilter unflagged — the SSIM path looked and found
	// nothing), or "" / "none" semantics: empty without a model,
	// "none" when the model shed the label as clean.
	Suspicion string `json:"suspicion,omitempty"`
}

// Suspicion levels.
const (
	SuspicionNone   = "none"
	SuspicionLow    = "low"
	SuspicionMedium = "medium"
	SuspicionHigh   = "high"
)

// StatMatch is the statistical classifier's detection result.
type StatMatch struct {
	// Domain is the IDN in ACE form; Unicode the display form.
	Domain  string `json:"domain"`
	Unicode string `json:"unicode"`
	// Score is the logistic probability of the label being malicious.
	Score float64 `json:"score"`
	// Top lists the highest-impact features behind the score.
	Top []feat.Contribution `json:"top,omitempty"`
}

// EnsembleConfidence is each detector's confidence in its own verdict:
// the homograph detector's SSIM (0 when clean), the semantic detector's
// exact-match indicator, and the statistical model's probability.
type EnsembleConfidence struct {
	Homograph   float64 `json:"homograph"`
	Semantic    float64 `json:"semantic"`
	Statistical float64 `json:"statistical"`
}

// Flagged reports whether any detector matched.
func (v Verdict) Flagged() bool {
	return v.Homograph != nil || v.Semantic != nil || v.Statistical != nil
}

// Classifier bundles the homograph and semantic detectors behind a
// single-domain Verdict entry point. Like HomographDetector it is safe
// for sequential reuse but not concurrent use; concurrent servers give
// each worker a Clone, which shares all immutable state.
type Classifier struct {
	homo *HomographDetector
	sem  *SemanticDetector
}

// NewClassifier builds the paired detectors over one brand catalog: the
// homograph detector's (the index's, brands.TopK(cfg.TopK) without one),
// which the semantic detector defends too. When cfg carries a
// statistical model the classifier becomes the three-detector ensemble:
// the model scores every non-ASCII label once, the score gates the SSIM
// path (learned prefilter) and contributes the third verdict with
// per-detector confidence and a suspicion level.
func NewClassifier(cfg DetectorConfig) *Classifier {
	homo := NewHomographDetector(cfg.TopK, cfg.detectorOptions()...)
	return &Classifier{homo: homo, sem: newSemanticDetector(homo.brandList)}
}

// Index returns the candidate index the homograph detector probes: the
// configured one, or the process-wide default index.
func (c *Classifier) Index() *candidx.Index { return c.homo.Index() }

// DetectorStats snapshots the detector family's shared counters
// (bounded-rescore early exits, prefilter pass/shed), aggregated
// across this classifier and all its Clones.
func (c *Classifier) DetectorStats() DetectorStats { return c.homo.Stats() }

// Clone returns a classifier sharing all immutable detector state (brand
// list, candidate index, prerendered brand rasters, the semantic brand
// map — read-only after construction) while owning private homograph
// scratch buffers. Clones are safe to use concurrently with each other
// and the original.
func (c *Classifier) Clone() *Classifier {
	return &Classifier{homo: c.homo.Clone(), sem: c.sem}
}

// Verdict classifies one pre-normalized domain with every detector.
// With a statistical model attached the label is scored exactly once:
// the raw margin feeds the prefilter gate, the statistical match and
// the confidence block. Without a model the ensemble fields stay zero
// and the verdict is bit-identical to the two-detector baseline.
func (c *Classifier) Verdict(n NormalizedDomain) Verdict {
	v := Verdict{Domain: n.ACE, Unicode: n.Unicode, IDN: idna.IsIDN(n.ACE)}
	stat := c.homo.stat
	if stat == nil || n.ASCII {
		// No model (baseline path), or an ASCII label the statistical
		// and homograph detectors both fast-exit on.
		if m, ok := c.homo.DetectNormalized(n); ok {
			v.Homograph = &m
		}
		if m, ok := c.sem.DetectNormalized(n); ok {
			v.Semantic = &m
		}
		if stat != nil {
			v.Confidence = &EnsembleConfidence{Semantic: semConfidence(v.Semantic)}
			v.Suspicion = suspicionLevel(&v, false)
		}
		return v
	}
	aceLabel, tld := idna.SLDLabel(n.ACE), idna.TLD(n.ACE)
	raw := stat.ScoreLabel(n.Label, aceLabel, tld)
	m, passed, ok := c.homo.detect(n, raw)
	if ok {
		hm := m // only a match is moved to the heap
		v.Homograph = &hm
	}
	if m, ok := c.sem.DetectNormalized(n); ok {
		v.Semantic = &m
	}
	prob := stat.Prob(raw)
	if stat.Flag(raw) {
		v.Statistical = &StatMatch{
			Domain:  n.ACE,
			Unicode: n.Unicode,
			Score:   prob,
			Top:     stat.TopContributions(n.Label, aceLabel, tld, 0, false, 3),
		}
	}
	conf := &EnsembleConfidence{Statistical: prob, Semantic: semConfidence(v.Semantic)}
	if v.Homograph != nil {
		conf.Homograph = v.Homograph.SSIM
	}
	v.Confidence = conf
	v.Suspicion = suspicionLevel(&v, passed)
	return v
}

func semConfidence(m *SemanticMatch) float64 {
	if m != nil {
		return 1
	}
	return 0
}

// suspicionLevel derives the ensemble's overall level: a structural
// match (glyph or semantic) is high regardless of the statistical
// score; a statistical flag alone is medium; a label that passed the
// prefilter but matched nothing is low (the expensive path looked);
// everything else — shed as clean, or ASCII — is none.
func suspicionLevel(v *Verdict, passedPrefilter bool) string {
	switch {
	case v.Homograph != nil || v.Semantic != nil:
		return SuspicionHigh
	case v.Statistical != nil:
		return SuspicionMedium
	case passedPrefilter:
		return SuspicionLow
	}
	return SuspicionNone
}

// VerdictFor normalizes and classifies in one call — the sequential
// convenience used by tests and examples.
func (c *Classifier) VerdictFor(domain string) (Verdict, error) {
	n, err := Normalize(domain)
	if err != nil {
		return Verdict{}, err
	}
	return c.Verdict(n), nil
}
