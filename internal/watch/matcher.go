package watch

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"idnlab/internal/brands"
	"idnlab/internal/core"
	"idnlab/internal/idna"
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
	// The labels decode has returned, back to back in chunk: each is a
	// substring of the chunk, so a decoded label costs no allocation of
	// its own, one chunk holding ~800 of them. dec is decode's buffer,
	// room for the longest DNS label, 63 octets, decoded.
	chunk strings.Builder
	dec   [utf8.UTFMax * 63]byte
}

// labelChunk is the size of the chunks a Matcher keeps decoded labels
// in: a small-object size, so a new chunk is a cached allocation.
const labelChunk = 16 << 10

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

// decode returns the Unicode form of an owner's label, as
// idna.ToUnicodeLabel does, as a substring of m's label chunk.
func (m *Matcher) decode(owner string) (string, error) {
	b, err := idna.AppendUnicodeLabel(m.dec[:0], owner)
	if err != nil {
		return "", err
	}
	if m.chunk.Len()+len(b) > m.chunk.Cap() {
		m.chunk = strings.Builder{}
		m.chunk.Grow(max(labelChunk, len(b)))
	}
	start := m.chunk.Len()
	m.chunk.Write(b)
	return m.chunk.String()[start:], nil
}

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
