package watch

import (
	"fmt"

	"idnlab/internal/brands"
	"idnlab/internal/core"
)

// Matcher decides whether one changed label imitates a watched brand.
// It is the watch tier's hot loop and runs core's own index-backed match
// loop (HomographDetector.BestIndexed), so its verdicts are bit-identical
// to DetectNormalized on the same label.
//
// A Matcher is not safe for concurrent use (the detector's probe scratch
// and glyph caches are private state); each pipeline worker owns a
// Clone. After warmup, Match allocates nothing.
type Matcher struct {
	det *core.HomographDetector
}

// Match is one confirmed imitation: the best-scoring watched brand for
// a label at or above the detection threshold.
type Match struct {
	BrandID uint32
	Brand   string // brand domain, e.g. "apple.com"
	SSIM    float64
}

// NewMatcher wraps an index-backed detector — any detector but a
// core.WithBrands reference sweep. The watch tier refuses the
// O(brands) sweep, because at millions of subscriptions it silently
// turns a streaming tier into a batch one.
func NewMatcher(det *core.HomographDetector) (*Matcher, error) {
	if det.Index() == nil {
		return nil, fmt.Errorf("watch: detector has no candidate index (a reference sweep); the watch hot path requires one")
	}
	return &Matcher{det: det}, nil
}

// Clone returns a Matcher for another worker: shares the immutable
// index, catalog and the detector's precomputed reference tables, with
// private scratch.
func (m *Matcher) Clone() *Matcher { return &Matcher{det: m.det.Clone()} }

// Match scores label (the Unicode form of a changed name's SLD) against
// the watched catalog and returns the result by value.
func (m *Matcher) Match(label string) (Match, bool) {
	id, score, ok := m.det.BestIndexed(label)
	if !ok {
		return Match{}, false
	}
	return Match{BrandID: uint32(id), Brand: m.Brands()[id].Domain, SSIM: score}, true
}

// Brands exposes the matcher's catalog (the index's embedded catalog);
// brand IDs in Match results index into it.
func (m *Matcher) Brands() []brands.Brand { return m.det.Index().Brands() }
