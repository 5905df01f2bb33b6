// Package glyph rasterizes domain-name strings into grayscale bitmaps.
//
// The paper's homograph detector (§VI-B) "rendered the image of every IDN
// and brand domain" before computing pair-wise SSIM. Reproducing that
// requires a renderer; since real font stacks are out of scope, this package
// ships a self-contained pixel typeface with a diacritic composition system
// that preserves the property the detector depends on: a homoglyph renders
// either pixel-identically to its ASCII target (Cyrillic а vs a) or with a
// small mark perturbation (á, ạ, â), while unrelated characters render very
// differently.
//
// Code points outside the known repertoire (e.g. CJK ideographs) render as
// deterministic hash glyphs: a pseudo-random but stable 5x7 pattern derived
// from the code point. Hash glyphs are mutually distinct with high
// probability and never resemble Latin glyphs, which mirrors reality — a
// Han ideograph does not pass for "a" in any font.
package glyph

import (
	"image"
	"math/bits"
	"sync"
	"unicode/utf8"
)

// Cell geometry: a 5x7 core band with two mark rows above and below, plus
// one column of inter-glyph spacing.
const (
	// CellWidth is the width in pixels of one rendered character cell.
	CellWidth = baseWidth + 1
	// CellHeight is the height in pixels of every rendered image.
	CellHeight = baseHeight + 4
	// coreTop is the first row of the 7-row core band.
	coreTop = 2
)

// Pixel values: ink on white background.
const (
	inkPixel        = 0x00
	backgroundPixel = 0xFF
)

// Renderer rasterizes strings. All Renderers share one immutable glyph
// atlas (the full designed repertoire, precomputed on first use), so a
// Renderer holds no mutable state and is safe for concurrent use by any
// number of goroutines — one Renderer can back a whole worker pool. The
// zero value is ready to use.
type Renderer struct {
	atlas *atlasTable
}

// atlasTable is the shared atlas: every designed glyph (base font plus
// composed diacritics) rasterized once into cells, then never written
// again. slot is indexed by code point and holds a designed rune's
// position in cells plus one, 0 for every other rune. Every designed
// rune is in the BMP and there are fewer than 256 of them, so one byte
// per BMP code point (64 KB) answers cellOf with a load and no hash.
// Runes outside the atlas are hash glyphs, which are pure functions of
// the code point and need no cache at all.
type atlasTable struct {
	slot  [1 << 16]uint8
	cells [][CellHeight]uint8
}

var (
	atlasOnce   sync.Once
	sharedAtlas atlasTable
)

func atlas() *atlasTable {
	atlasOnce.Do(func() {
		a := &sharedAtlas
		add := func(r rune) {
			if uint32(r) >= uint32(len(a.slot)) || len(a.cells) == 255 {
				panic("glyph: the designed repertoire outgrew the BMP slot table")
			}
			a.cells = append(a.cells, rasterize(r))
			a.slot[r] = uint8(len(a.cells))
		}
		for r := range baseFont {
			add(r)
		}
		for r := range composed {
			add(r)
		}
	})
	return &sharedAtlas
}

// cell returns r's designed cell, and false for a rune outside the
// designed repertoire.
func (a *atlasTable) cell(r rune) ([CellHeight]uint8, bool) {
	if uint32(r) < uint32(len(a.slot)) {
		if s := a.slot[r]; s != 0 {
			return a.cells[s-1], true
		}
	}
	return [CellHeight]uint8{}, false
}

// NewRenderer returns a Renderer backed by the shared precomputed glyph
// atlas. Construction is O(1) after the first call in the process; the
// returned Renderer is immutable and safe for concurrent use.
func NewRenderer() *Renderer {
	return &Renderer{atlas: atlas()}
}

// cellOf returns the rasterized cell for r as CellHeight rows of column
// bits (bit i set = column i inked; only the low baseWidth bits are used).
// It equals rasterize(r) at every code point.
func (re *Renderer) cellOf(r rune) [CellHeight]uint8 {
	if r >= 'A' && r <= 'Z' {
		r += 'a' - 'A'
	}
	a := re.atlas
	if a == nil {
		a = atlas()
	}
	if c, ok := a.cell(r); ok {
		return c
	}
	return hashGlyph(r)
}

// rasterize draws one code point into a cell bitmask.
func rasterize(r rune) [CellHeight]uint8 {
	if r >= 'A' && r <= 'Z' {
		r += 'a' - 'A'
	}
	var cell [CellHeight]uint8
	if rows, ok := baseFont[r]; ok {
		paintCore(&cell, rows)
		return cell
	}
	if sp, ok := composed[r]; ok {
		rows := baseFont[sp.base]
		paintCore(&cell, rows)
		for _, m := range sp.marks {
			paintMark(&cell, m)
		}
		return cell
	}
	return hashGlyph(r)
}

// paintCore draws the 7-row base glyph into the core band.
func paintCore(cell *[CellHeight]uint8, rows [baseHeight]string) {
	for y := 0; y < baseHeight; y++ {
		var bits uint8
		row := rows[y]
		for x := 0; x < baseWidth && x < len(row); x++ {
			if row[x] == '#' {
				bits |= 1 << uint(x)
			}
		}
		cell[coreTop+y] = bits
	}
}

// paintMark draws a diacritic into its band, or an overlay across the core.
func paintMark(cell *[CellHeight]uint8, m Mark) {
	switch m {
	case MarkStroke:
		// Horizontal bar through the vertical middle of the core band.
		cell[coreTop+3] |= 0x1F
		return
	case MarkSlash:
		// Diagonal from bottom-left to top-right of the core band.
		for y := 0; y < baseHeight; y++ {
			x := (baseHeight - 1 - y) * baseWidth / baseHeight
			cell[coreTop+y] |= 1 << uint(x)
		}
		return
	}
	mr, ok := markTable[m]
	if !ok {
		return
	}
	top := 0
	if mr.below {
		top = coreTop + baseHeight
	}
	for y := 0; y < 2; y++ {
		var bits uint8
		row := mr.rows[y]
		for x := 0; x < baseWidth && x < len(row); x++ {
			if row[x] == '#' {
				bits |= 1 << uint(x)
			}
		}
		cell[top+y] |= bits
	}
}

// hashGlyph derives a stable pseudo-glyph for an unknown code point. The
// core band is filled from a splitmix64 hash of the code point, leaving the
// mark bands empty so hash glyphs stay visually "in line".
func hashGlyph(r rune) [CellHeight]uint8 {
	var cell [CellHeight]uint8
	z := uint64(r) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	for y := 0; y < baseHeight; y++ {
		cell[coreTop+y] = uint8(z>>(uint(y)*5)) & 0x1F
	}
	// Guarantee visible ink even for degenerate hash values.
	cell[coreTop] |= 0x04
	cell[coreTop+baseHeight-1] |= 0x0A
	return cell
}

// RenderWidth rasterizes s into an image of exactly width pixels, padding
// with background on the right or truncating. Fixed-width rendering is what
// makes pair-wise SSIM between different-length domains well-defined.
func (re *Renderer) RenderWidth(s string, width int) *image.Gray {
	return re.RenderWidthInto(nil, s, width)
}

// RenderWidthInto is RenderWidth with a caller-owned destination buffer:
// when dst is non-nil and its pixel buffer has capacity for width ×
// CellHeight pixels, the image is drawn in place and dst is returned;
// otherwise a fresh image is allocated. A steady-state corpus scan that
// threads the returned image back in performs zero allocations per
// candidate. The destination is fully overwritten (background first), so
// stale pixels never leak between renders.
func (re *Renderer) RenderWidthInto(dst *image.Gray, s string, width int) *image.Gray {
	if width < 0 {
		width = 0
	}
	need := width * CellHeight
	if dst == nil || cap(dst.Pix) < need {
		dst = image.NewGray(image.Rect(0, 0, width, CellHeight))
	} else {
		dst.Pix = dst.Pix[:need]
		dst.Stride = width
		dst.Rect = image.Rect(0, 0, width, CellHeight)
	}
	if len(dst.Pix) > 0 {
		dst.Pix[0] = backgroundPixel
		for n := 1; n < len(dst.Pix); n *= 2 {
			copy(dst.Pix[n:], dst.Pix[:n])
		}
	}
	for x0, i := 0, 0; i < len(s) && x0 < width; x0 += CellWidth {
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		cell := re.cellOf(r)
		// Columns past width are dropped: rendering is column-local, so a
		// render is the leading columns of any wider one.
		mask := uint8(1<<min(width-x0, baseWidth) - 1)
		for y, row := range cell {
			for b := row & mask; b != 0; b &= b - 1 {
				dst.Pix[y*dst.Stride+x0+bits.TrailingZeros8(b)] = inkPixel
			}
		}
	}
	return dst
}

// CellBits returns the rasterized cell of r as CellHeight rows of column
// bitmasks (bit i set = column i inked; only the low baseWidth bits are
// used). This is the raw form behind Render: substitution sweeps fetch it
// once per homoglyph and feed it to DiffBox / AppendPatch instead of
// re-resolving the glyph per pixel.
func (re *Renderer) CellBits(r rune) [CellHeight]uint8 {
	return re.cellOf(r)
}

// DiffBox returns the bounding box of pixels that differ between two cell
// bitmasks: column offsets [dx0, dx1) and row range [dy0, dy1), or the
// all-zero empty box when the cells are identical.
func DiffBox(ca, cb [CellHeight]uint8) (dx0, dx1, dy0, dy1 int) {
	dx0, dy0 = baseWidth, CellHeight
	for y := 0; y < CellHeight; y++ {
		d := ca[y] ^ cb[y]
		if d == 0 {
			continue
		}
		if y < dy0 {
			dy0 = y
		}
		dy1 = y + 1
		if lo := bits.TrailingZeros8(d); lo < dx0 {
			dx0 = lo
		}
		if hi := 8 - bits.LeadingZeros8(d); hi > dx1 {
			dx1 = hi
		}
	}
	if dx1 <= dx0 {
		return 0, 0, 0, 0
	}
	return dx0, dx1, dy0, dy1
}

// AppendPatch appends the pixel bytes of cell restricted to the box of
// columns [dx0, dx1) and rows [dy0, dy1) to dst, row-major with stride
// dx1−dx0, and returns the extended slice. The emitted bytes are exactly
// what a full render would place at those cell pixels (inkPixel where the
// bit is set, backgroundPixel elsewhere), so a patch plus its box describes
// a single-character substitution without touching any raster.
func AppendPatch(cell [CellHeight]uint8, dx0, dx1, dy0, dy1 int, dst []byte) []byte {
	for y := dy0; y < dy1; y++ {
		rowBits := cell[y]
		for x := dx0; x < dx1; x++ {
			if rowBits&(1<<uint(x)) != 0 {
				dst = append(dst, inkPixel)
			} else {
				dst = append(dst, backgroundPixel)
			}
		}
	}
	return dst
}

// InkOverlap computes |A∩B| / max(|A|,|B|) of inked pixels between the
// cells of two code points — the pixel-overlap measure the UC-SimList
// authors used to compose their homoglyph list (paper §VI-D).
func InkOverlap(a, b rune) float64 {
	ca, cb := rasterize(a), rasterize(b)
	inter, na, nb := 0, 0, 0
	for y := 0; y < CellHeight; y++ {
		inter += popcount5(ca[y] & cb[y])
		na += popcount5(ca[y])
		nb += popcount5(cb[y])
	}
	maxN := max(na, nb)
	if maxN == 0 {
		return 0
	}
	return float64(inter) / float64(maxN)
}

// popcount5 counts set bits in the low 5 bits.
func popcount5(b uint8) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}
