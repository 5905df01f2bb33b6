// Package simchar derives a character-confusability table directly from
// the glyph renderer and the SSIM kernel — the ShamFinder-style inversion
// of UC-SimList: instead of shipping a static homoglyph list, every code
// point in the designed repertoire is rasterized (package glyph) and
// scored against every ASCII domain character with the same structural-
// similarity measure the homograph detector uses (package ssim). The
// result is the generation source for the precomputed candidate index
// (package candidx): which substitutions are pixel-identical, which are
// perturbations of which base, and how similar each pair renders.
//
// Three derived views matter downstream:
//
//   - Identity classes: runes whose cell bitmaps are pixel-for-pixel equal
//     (Cyrillic а vs Latin a). Substituting within a class never changes a
//     rendered image, so any number of identity substitutions composes
//     freely; the skeleton fold collapses them to the ASCII base.
//   - Family fold (skeleton): each rune maps to the ASCII base it renders
//     most similarly to, when that cell-level SSIM clears FamilyThreshold.
//     Diacritic variants (á, ạ, â → a) fold; unrelated glyphs do not.
//   - Similar lists: per ASCII base, every repertoire rune with its
//     cell-level SSIM, sorted best-first — the auto-derived SimChar list.
//
// The derivation is a pure function of the glyph design; Fingerprint
// captures it so index files can refuse to load against a renderer they
// were not derived from.
package simchar

import (
	"sort"
	"sync"

	"idnlab/internal/glyph"
	"idnlab/internal/ssim"
)

// FamilyThreshold is the minimum cell-level SSIM for a rune to fold to an
// ASCII base in the skeleton. High enough that unrelated letters stay
// unfolded (they score well below it at cell scale), low enough that
// every composed diacritic variant folds to its composition base — pinned
// by TestFamilyFoldCoversComposed.
const FamilyThreshold = 0.55

// Bases is the ASCII domain-character repertoire the table scores
// against: LDH letters, digits and hyphen (dots never appear in labels).
const Bases = "abcdefghijklmnopqrstuvwxyz0123456789-"

// Sim is one scored (rune, base) similarity.
type Sim struct {
	// Rune is the confusable code point.
	Rune rune
	// SSIM is the cell-level structural similarity against the base.
	SSIM float64
	// Identical reports a pixel-identical rendering (SSIM exactly 1).
	Identical bool
}

// Table is the derived confusability table. It is immutable after
// construction and safe for concurrent use.
type Table struct {
	// foldByte maps a rune to the ASCII base byte of its family, for
	// identity-class members and family members alike. Runes absent from
	// the map do not fold.
	foldByte map[rune]byte
	// identity maps a rune to its base when the rendering is
	// pixel-identical.
	identity map[rune]byte
	// bitmapBase indexes the base glyph bitmaps, so runes outside the
	// derivation repertoire (hash glyphs) can still be identity-folded at
	// lookup time if their bitmap coincides with a base.
	bitmapBase map[[glyph.CellHeight]uint8]byte
	// similar holds the per-base scored lists, best-first.
	similar map[byte][]Sim
	// re renders bitmaps for runes outside the derivation repertoire.
	re *glyph.Renderer
	// fingerprint commits to the whole derivation.
	fingerprint uint64
}

var (
	defaultOnce  sync.Once
	defaultTable *Table
)

// Default returns the process-wide table derived from the glyph
// repertoire at FamilyThreshold.
func Default() *Table {
	defaultOnce.Do(func() { defaultTable = Derive() })
	return defaultTable
}

// Derive builds the table from first principles: rasterize the designed
// repertoire, compare every non-ASCII code point against every base with
// the SSIM kernel, group pixel-identical renderings, and assign families.
func Derive() *Table {
	re := glyph.NewRenderer()
	cmp := ssim.New(ssim.DefaultWindow)

	t := &Table{
		foldByte:   make(map[rune]byte),
		identity:   make(map[rune]byte),
		bitmapBase: make(map[[glyph.CellHeight]uint8]byte),
		similar:    make(map[byte][]Sim),
		re:         re,
	}

	baseRefs := make(map[byte]*ssim.RefTable, len(Bases))
	for i := 0; i < len(Bases); i++ {
		b := Bases[i]
		rt, err := ssim.Precompute(re.RenderWidth(string(rune(b)), glyph.CellWidth))
		if err != nil {
			panic("simchar: one glyph cell: " + err.Error()) // a cell is 66 px
		}
		baseRefs[b] = rt
		bits := re.CellBits(rune(b))
		if _, dup := t.bitmapBase[bits]; !dup {
			t.bitmapBase[bits] = b
		}
	}

	// Deterministic repertoire order: sorted composed list. ASCII bases
	// fold to themselves by definition and are not listed as similars.
	rep := glyph.Composed()
	sort.Slice(rep, func(i, j int) bool { return rep[i] < rep[j] })
	for _, r := range rep {
		if r < 0x80 {
			continue
		}
		bits := re.CellBits(r)
		bestBase, bestScore := byte(0), -2.0
		identicalBase, isIdentical := t.bitmapBase[bits]
		candImg := re.RenderWidth(string(r), glyph.CellWidth)
		for i := 0; i < len(Bases); i++ {
			b := Bases[i]
			v, err := cmp.IndexRef(baseRefs[b], candImg)
			if err != nil {
				continue
			}
			ident := isIdentical && identicalBase == b
			t.similar[b] = append(t.similar[b], Sim{Rune: r, SSIM: v, Identical: ident})
			if v > bestScore {
				bestScore, bestBase = v, b
			}
		}
		switch {
		case isIdentical:
			t.identity[r] = identicalBase
			t.foldByte[r] = identicalBase
		case bestScore >= FamilyThreshold:
			t.foldByte[r] = bestBase
		}
	}
	for b := range t.similar {
		list := t.similar[b]
		sort.Slice(list, func(i, j int) bool {
			if list[i].SSIM != list[j].SSIM {
				return list[i].SSIM > list[j].SSIM
			}
			return list[i].Rune < list[j].Rune
		})
	}
	t.fingerprint = t.computeFingerprint(re, rep)
	return t
}

// computeFingerprint hashes the full derivation: every repertoire bitmap,
// every fold decision and every identity class, in deterministic order.
func (t *Table) computeFingerprint(re *glyph.Renderer, rep []rune) uint64 {
	h := newFNV()
	for i := 0; i < len(Bases); i++ {
		h.rune(rune(Bases[i]))
		h.bits(re.CellBits(rune(Bases[i])))
	}
	for _, r := range rep {
		if r < 0x80 {
			continue
		}
		h.rune(r)
		h.bits(re.CellBits(r))
		h.byteVal(t.foldByte[r]) // 0 when unfolded
		h.byteVal(t.identity[r])
	}
	return h.sum
}

// Fingerprint commits to the derivation; index files embed it and refuse
// to load against a different glyph design.
func (t *Table) Fingerprint() uint64 { return t.fingerprint }

// Fold returns the ASCII base r belongs to under the family fold, and
// whether it folds at all. ASCII LDH characters fold to themselves;
// repertoire runes fold per the derivation; unknown runes fold only if
// their (hash-)glyph bitmap coincides pixel-for-pixel with a base glyph.
func (t *Table) Fold(r rune) (byte, bool) {
	if r < 0x80 {
		if r >= 'A' && r <= 'Z' {
			return byte(r + 'a' - 'A'), true
		}
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '-' {
			return byte(r), true
		}
		return 0, false
	}
	if b, ok := t.foldByte[r]; ok {
		return b, true
	}
	// Outside the derivation repertoire: identity-fold via the bitmap so
	// a hash glyph that happens to render exactly like a base cannot
	// evade the skeleton. (No family fold: hash glyphs have no family.)
	if b, ok := t.bitmapBase[t.re.CellBits(r)]; ok {
		return b, true
	}
	return 0, false
}

// Similar returns the scored confusables of an ASCII base, best-first.
// The returned slice is shared and must not be modified.
func (t *Table) Similar(base byte) []Sim { return t.similar[base] }

// fnv is an inline FNV-1a 64 accumulator (stdlib-only, deterministic).
type fnv struct{ sum uint64 }

func newFNV() *fnv { return &fnv{sum: 1469598103934665603} }

func (h *fnv) byteVal(b byte) {
	h.sum ^= uint64(b)
	h.sum *= 1099511628211
}

func (h *fnv) rune(r rune) {
	h.byteVal(byte(r))
	h.byteVal(byte(r >> 8))
	h.byteVal(byte(r >> 16))
	h.byteVal(byte(r >> 24))
}

func (h *fnv) bits(cell [glyph.CellHeight]uint8) {
	for _, b := range cell {
		h.byteVal(b)
	}
}

// HashBytes exposes the table's FNV-1a accumulator for consumers that
// need a deterministic stdlib-only content hash (the index file format).
func HashBytes(seed uint64, p []byte) uint64 {
	h := seed
	if h == 0 {
		h = 1469598103934665603
	}
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
