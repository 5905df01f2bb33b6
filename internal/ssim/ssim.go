// Package ssim implements the Structural Similarity (SSIM) index of Wang,
// Bovik, Sheikh and Simoncelli ("Image quality assessment: from error
// visibility to structural similarity", IEEE TIP 2004) on grayscale images,
// plus the mean-squared-error baseline the paper contrasts it with (§VI-B).
//
// The paper's homograph detector computes a pair-wise SSIM index between a
// rendered IDN and each rendered brand domain, flagging the IDN as
// homographic when the maximum index exceeds 0.95. SSIM outputs lie in
// [-1, 1], with 1 meaning perfectly identical images.
//
// # Kernel
//
// The mean SSIM is an average over every stride-1 window position, and each
// window needs five sums (Σa, Σb, Σa², Σb², Σab). Computing them from the
// pixels at every position costs O(W·H·win²) multiply-adds per pair — the
// cost profile behind the paper's 102-hour brute-force sweep. A Comparator
// instead builds summed-area tables (integral images) once per pair,
// O(W·H), after which any window's five sums are a handful of table
// lookups: the whole index becomes O(W·H) regardless of window size.
//
// Two exactness properties make the fast kernel safe to substitute for the
// reference loop:
//
//   - The tables are integer-exact. Pixels are uint8, so every window sum
//     is an integer far below 2^53; uint64 table arithmetic and the
//     float64 conversions downstream are all lossless. The kernel packs
//     each image's (Σx, Σx²) into the two 32-bit halves of one uint64
//     table — three tables per pair instead of five, which is where the
//     build spends its time — with overflow and carry/borrow-freedom
//     guaranteed by the pixel-count bound maxPackedPixels, which every
//     rendered DNS name is inside; larger images are refused
//     (ErrTooLarge). Packing per image (rather than across the pair)
//     also lets a RefTable cache a reference image's table, so scans
//     that compare many candidates against a fixed brand raster rebuild
//     only the candidate's table and the cross table per call
//     (IndexRef).
//   - The kernel and the direct-summation reference the tests keep
//     (IndexNaive) fold window sums through the same windowStat
//     expression, so the integral-image path is bit-identical to it —
//     pinned by property tests and the byte-exact golden report.
//
// A rescore that only needs to know whether a candidate reaches a floor
// (IndexRefBounded, the index-backed detector's path) does only the work
// where the candidate differs from the reference: it finds the bounding
// rectangle of the differing pixels (an identical candidate scores exactly
// 1.0), tries a table-free lower bound on the deficit over that rectangle,
// then runs RefSubPatchAbove's certified predicate over delta tables built
// for the rectangle alone, and computes the exact score — by the same
// sub-rectangle sweep as IndexRefSubPatch, bit-identical to IndexRef —
// only when the predicate has not proved the floor out of reach.
//
// The tables live in a scratch buffer owned by the Comparator and are
// reused across calls, so a steady-state corpus scan performs zero
// allocations per comparison. A Comparator is consequently not safe for
// concurrent use; give each goroutine its own (they are cheap).
package ssim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"image"
	"math/bits"
)

// Default parameters from the SSIM paper: an 8x8 sliding window and
// stabilization constants derived from K1=0.01, K2=0.03 at dynamic range
// L=255.
const (
	DefaultWindow = 8
	k1            = 0.01
	k2            = 0.03
	dynamicRange  = 255.0
)

// maxPackedPixels bounds the packed three-table kernel: with
// w*h ≤ 33000 every per-half table value is at most 255²·33000 < 2^31,
// so adding two table entries cannot carry across the 32-bit boundary and
// the four-corner subtraction cannot borrow (window sums are
// non-negative). A glyph cell is 6×11 = 66 px and Normalize refuses names
// over 253 octets, so the widest rendered name is 253·66 = 16,698 px.
const maxPackedPixels = 33000

var (
	// ErrSizeMismatch reports two images with different dimensions; the
	// caller decides the padding policy (package glyph renders
	// fixed-width pairs).
	ErrSizeMismatch = errors.New("ssim: image dimensions differ")
	// ErrTooLarge reports an image over maxPackedPixels, larger than any
	// rendered DNS name.
	ErrTooLarge = errors.New("ssim: image larger than any rendered DNS name")
)

// Comparator computes SSIM indices with a fixed window size. The zero value
// is not usable; use New. A Comparator owns a reusable summed-area-table
// scratch buffer and is therefore not safe for concurrent use.
type Comparator struct {
	window int
	c1, c2 float64
	buf    []uint64 // summed-area scratch, grown on demand, reused per pair
}

// New returns a Comparator with the given sliding-window size. Sizes
// smaller than 2 or larger than either image dimension at comparison time
// degrade to a single global window.
func New(window int) *Comparator {
	if window < 2 {
		window = 2
	}
	return &Comparator{
		window: window,
		c1:     (k1 * dynamicRange) * (k1 * dynamicRange),
		c2:     (k2 * dynamicRange) * (k2 * dynamicRange),
	}
}

// scratch returns the reusable buffer resized to n zero-padding-safe
// elements (contents beyond the zeroed regions are overwritten by the
// builders).
func (c *Comparator) scratch(n int) []uint64 {
	if cap(c.buf) < n {
		c.buf = make([]uint64, n)
	}
	return c.buf[:n]
}

// Index computes the mean SSIM index between two equal-sized grayscale
// images: the per-window SSIM averaged over all window positions (stride
// 1), in O(W·H) total via the integral-image kernel. Results are
// bit-identical to direct summation over every window. Images over
// maxPackedPixels are refused with ErrTooLarge.
func (c *Comparator) Index(a, b *image.Gray) (float64, error) {
	w, h := a.Rect.Dx(), a.Rect.Dy()
	if w != b.Rect.Dx() || h != b.Rect.Dy() {
		return 0, ErrSizeMismatch
	}
	if w*h > maxPackedPixels {
		return 0, ErrTooLarge
	}
	if w == 0 || h == 0 {
		return 1, nil // two empty images are identical
	}
	return c.indexPacked(a, b, w, h, min(c.window, w, h)), nil
}

// indexPacked is the three-table kernel: tables tA and tB each hold one
// image's Σx in the low and Σx² in the high 32 bits, and tX holds Σab
// alone.
func (c *Comparator) indexPacked(a, b *image.Gray, w, h, win int) float64 {
	stride := w + 1
	n := stride * (h + 1)
	buf := c.scratch(3 * n)
	tA := buf[0*n : 1*n]
	tB := buf[1*n : 2*n]
	tX := buf[2*n : 3*n]
	for x := 0; x < stride; x++ {
		tA[x], tB[x], tX[x] = 0, 0, 0
	}
	for y := 0; y < h; y++ {
		rowA := a.Pix[y*a.Stride : y*a.Stride+w]
		rowB := b.Pix[y*b.Stride : y*b.Stride+w]
		prevA := tA[y*stride : (y+1)*stride]
		curA := tA[(y+1)*stride : (y+2)*stride]
		prevB := tB[y*stride : (y+1)*stride]
		curB := tB[(y+1)*stride : (y+2)*stride]
		prevX := tX[y*stride : (y+1)*stride]
		curX := tX[(y+1)*stride : (y+2)*stride]
		curA[0], curB[0], curX[0] = 0, 0, 0
		var ra, rb, rx uint64 // running row sums; ra/rb packed Σx|Σx²<<32
		for x := 0; x < w; x++ {
			pa := uint64(rowA[x])
			pb := uint64(rowB[x])
			ra += pa | (pa*pa)<<32
			rb += pb | (pb*pb)<<32
			rx += pa * pb
			curA[x+1] = prevA[x+1] + ra
			curB[x+1] = prevB[x+1] + rb
			curX[x+1] = prevX[x+1] + rx
		}
	}
	return packedWindows(tA, tB, tX, stride, w, h, win, c.c1, c.c2)
}

// packedWindows sweeps every window position over the packed self tables
// tA, tB and the cross table tX, averaging windowStat. Shared by
// indexPacked and IndexRef so both are bit-identical by construction.
func packedWindows(tA, tB, tX []uint64, stride, w, h, win int, c1, c2 float64) float64 {
	invN := 1 / float64(win*win)
	var sum float64
	var count int
	for y := 0; y+win <= h; y++ {
		topA := tA[y*stride:]
		botA := tA[(y+win)*stride:]
		topB := tB[y*stride:]
		botB := tB[(y+win)*stride:]
		topX := tX[y*stride:]
		botX := tX[(y+win)*stride:]
		for x := 0; x+win <= w; x++ {
			xw := x + win
			sa := botA[xw] + topA[x] - topA[xw] - botA[x]
			sb := botB[xw] + topB[x] - topB[xw] - botB[x]
			sx := botX[xw] + topX[x] - topX[xw] - botX[x]
			sum += windowStat(
				float64(uint32(sa)), float64(uint32(sb)),
				float64(sa>>32), float64(sb>>32),
				float64(sx), invN, c1, c2)
			count++
		}
	}
	// After clamping win ≤ min(w, h) both loops execute at least once,
	// so count ≥ 1.
	return sum / float64(count)
}

// RefTable holds the precomputed summed-area statistics (packed Σx, Σx²)
// of a reference image. Scans that score many candidates against a fixed
// reference — the homograph detector's brand rasters — reuse it via
// IndexRef, skipping the reference's share of the per-pair table build.
// A RefTable is immutable after Precompute and safe to share across
// goroutines (each goroutine still needs its own Comparator).
type RefTable struct {
	img  *image.Gray
	w, h int
	t    []uint64 // nil when the image is empty
}

// Precompute builds the reusable reference-side table for img. An empty
// image gets a table-less RefTable, which IndexRef answers through
// Index; an image over maxPackedPixels is refused with ErrTooLarge.
func Precompute(img *image.Gray) (*RefTable, error) {
	w, h := img.Rect.Dx(), img.Rect.Dy()
	if w*h > maxPackedPixels {
		return nil, ErrTooLarge
	}
	rt := &RefTable{img: img, w: w, h: h}
	if w == 0 || h == 0 {
		return rt, nil
	}
	stride := w + 1
	rt.t = make([]uint64, stride*(h+1))
	for y := 0; y < h; y++ {
		row := img.Pix[y*img.Stride : y*img.Stride+w]
		prev := rt.t[y*stride : (y+1)*stride]
		cur := rt.t[(y+1)*stride : (y+2)*stride]
		var r uint64
		for x := 0; x < w; x++ {
			p := uint64(row[x])
			r += p | (p*p)<<32
			cur[x+1] = prev[x+1] + r
		}
	}
	return rt, nil
}

// IndexRef computes Index(ref, b) for the image ref that rt was
// precomputed from, reusing rt's reference table: only the candidate's
// self table and the cross table are built per call, cutting the
// table-build cost by a third on the steady-state scan path.
// Bit-identical to Index.
func (c *Comparator) IndexRef(rt *RefTable, b *image.Gray) (float64, error) {
	if rt.w != b.Rect.Dx() || rt.h != b.Rect.Dy() {
		return 0, ErrSizeMismatch
	}
	if rt.t == nil {
		return c.Index(rt.img, b) // empty
	}
	w, h := rt.w, rt.h
	win := min(c.window, w, h)
	stride := w + 1
	n := stride * (h + 1)
	buf := c.scratch(2 * n)
	tB := buf[0*n : 1*n]
	tX := buf[1*n : 2*n]
	for x := 0; x < stride; x++ {
		tB[x], tX[x] = 0, 0
	}
	for y := 0; y < h; y++ {
		rowA := rt.img.Pix[y*rt.img.Stride : y*rt.img.Stride+w]
		rowB := b.Pix[y*b.Stride : y*b.Stride+w]
		prevB := tB[y*stride : (y+1)*stride]
		curB := tB[(y+1)*stride : (y+2)*stride]
		prevX := tX[y*stride : (y+1)*stride]
		curX := tX[(y+1)*stride : (y+2)*stride]
		curB[0], curX[0] = 0, 0
		var rb, rx uint64
		for x := 0; x < w; x++ {
			pa := uint64(rowA[x])
			pb := uint64(rowB[x])
			rb += pb | (pb*pb)<<32
			rx += pa * pb
			curB[x+1] = prevB[x+1] + rb
			curX[x+1] = prevX[x+1] + rx
		}
	}
	return packedWindows(rt.t, tB, tX, stride, w, h, win, c.c1, c.c2), nil
}

// IndexRefBounded is IndexRef for scans that only care about scores at
// or above floor — the candidate-rescore loop of index-backed homograph
// detection, where most candidates fall well short of the detection
// threshold and an index's candidate usually differs from the brand in a
// few substituted glyphs. It returns (score, true) with score
// bit-identical to IndexRef's when the index is at least floor;
// otherwise (0, false), guaranteeing the exact index is strictly below
// floor.
//
// It scores only the rectangle where b differs from the reference: the
// bounding box of the differing pixels (an identical candidate scores
// exactly 1.0), then RefSubPatchAbove's certified predicate at floor
// over that box (a table-free deficit bound, then delta tables over the
// box), then — only when the predicate does not reject — the exact
// changed-rectangle sweep behind IndexRefSubPatch, bit-identical to
// IndexRef.
func (c *Comparator) IndexRefBounded(rt *RefTable, b *image.Gray, floor float64) (float64, bool, error) {
	if rt.w != b.Rect.Dx() || rt.h != b.Rect.Dy() {
		return 0, false, ErrSizeMismatch
	}
	if rt.t == nil {
		v, err := c.Index(rt.img, b) // empty
		return v, err == nil && v >= floor, err
	}
	x0, x1, y0, y1 := diffRect(rt.img, b, rt.w, rt.h)
	if x0 >= x1 {
		// Every window is bit-identical, so every window statistic and
		// their mean are exactly 1.0 (see IndexRefSubPatch).
		return 1, floor <= 1, nil
	}
	d, t1, t2, tx := c.refSubAbove(rt, x0, x1, y0, y1, func(gy int) []byte {
		return b.Pix[gy*b.Stride+x0 : gy*b.Stride+x1]
	}, floor)
	if d < 0 {
		return 0, false, nil
	}
	v := c.refSubSweep(rt, x0, x1, y0, y1, t1, t2, tx)
	return v, v >= floor, nil
}

// diffRect returns the bounding box of the pixels where a and b (both at
// least w×h) differ: columns [x0, x1) and rows [y0, y1), or x0 ≥ x1 when
// they are identical. Equal rows are skipped with one bytes.Equal; a
// differing row scans only the columns outside the box found so far.
func diffRect(a, b *image.Gray, w, h int) (x0, x1, y0, y1 int) {
	x0, y0 = w, h
	for y := 0; y < h; y++ {
		ra := a.Pix[y*a.Stride : y*a.Stride+w]
		rb := b.Pix[y*b.Stride : y*b.Stride+w]
		if bytes.Equal(ra, rb) {
			continue
		}
		if y0 == h {
			y0 = y
		}
		y1 = y + 1
		x0 = firstDiff(ra[:x0], rb[:x0])
		x1 += lastDiff(ra[x1:], rb[x1:])
	}
	return x0, x1, y0, y1
}

// firstDiff returns the index of the first byte where a and b differ,
// or len(a) when they are equal (len(b) ≥ len(a)).
func firstDiff(a, b []byte) int {
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if d := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); d != 0 {
			return i + bits.TrailingZeros64(d)/8
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// lastDiff returns one past the index of the last byte where a and b
// differ, or 0 when they are equal (len(a) == len(b)).
func lastDiff(a, b []byte) int {
	i := len(a)
	for ; i >= 8; i -= 8 {
		if d := binary.LittleEndian.Uint64(a[i-8:]) ^ binary.LittleEndian.Uint64(b[i-8:]); d != 0 {
			return i - bits.LeadingZeros64(d)/8
		}
	}
	for ; i > 0; i-- {
		if a[i-1] != b[i-1] {
			return i
		}
	}
	return 0
}

// IndexRefSubPatch computes IndexRef(rt, b) for a candidate b that is
// never materialized as an image: b equals the reference everywhere except
// the rectangle of columns [x0, x1) and rows [y0, y1), whose candidate
// pixels are supplied row-major in patch (stride x1−x0). The availability
// study's single-substitution sweep passes each homoglyph's few changed
// pixels directly, skipping the per-candidate raster write entirely.
//
// Windows that do not overlap the changed rectangle compare bit-identical
// content, and for such windows windowStat is exactly 1.0 in IEEE
// arithmetic (the numerator and denominator evaluate to the same float64:
// with bitwise-equal inputs, 2*μa*μb equals μa²+μb² and 2*cov equals
// var_a+var_b exactly, because doubling and rounding commute under powers
// of two). The kernel therefore sums a literal 1.0 for every unaffected
// window — in the same accumulation order as IndexRef, with the leading
// all-ones prefix collapsed to its exact integer value — and computes real
// window statistics only for windows overlapping the rectangle, deriving
// each candidate sum from the reference table plus signed delta integral
// tables built over just the rectangle: O(rect area) build cost instead of
// O(W·H). The result is bit-identical to rendering the candidate and
// calling IndexRef; a rectangle that does not cover every differing pixel
// gives garbage, so it is a correctness contract, not a hint. The
// rectangle must satisfy 0 ≤ x0 < x1 ≤ w and 0 ≤ y0 < y1 ≤ h (so rt is
// not empty), and patch must hold at least (x1−x0)·(y1−y0) bytes.
func (c *Comparator) IndexRefSubPatch(rt *RefTable, x0, x1, y0, y1 int, patch []byte) (float64, error) {
	if x0 < 0 || x0 >= x1 || x1 > rt.w || y0 < 0 || y0 >= y1 || y1 > rt.h {
		return 0, errPatchRect
	}
	bw := x1 - x0
	if len(patch) < bw*(y1-y0) {
		return 0, errPatchShort
	}
	return c.refSubPatch(rt, x0, x1, y0, y1, func(gy int) []byte {
		off := (gy - y0) * bw
		return patch[off : off+bw]
	}), nil
}

var (
	errPatchRect  = errors.New("ssim: IndexRefSubPatch rectangle out of bounds")
	errPatchShort = errors.New("ssim: IndexRefSubPatch patch shorter than rectangle")
)

// RefSubPatchAbove reports whether IndexRefSubPatch(rt, x0, x1, y0, y1,
// patch) >= threshold, with the same contract as IndexRefSubPatch, but
// usually without paying for the exact score. The mean SSIM of a patched
// candidate is (k·1.0 + Σ affected windowStat) / n, where k windows are
// bit-identical to the reference; the exact kernel must replay IndexRef's
// sequential accumulation through all n windows, an FP-latency chain that
// dominates the sweep for small patches. This predicate instead computes
// the mathematically equal reordered sum over only the affected windows,
// brackets the exact kernel's result with a rigorous rounding-error bound
// (both sums differ from the real-number sum by at most ~n²·ε/2; the
// bound below is two orders of magnitude looser), and decides the
// comparison when the threshold falls outside the bracket. Only when the
// score and the threshold are within ~1e-9·n of each other — which no
// generic image pair ever is — does it fall back to the exact sweep, so
// the decision always equals comparing the exact IndexRefSubPatch score.
func (c *Comparator) RefSubPatchAbove(rt *RefTable, x0, x1, y0, y1 int, patch []byte, threshold float64) (bool, error) {
	if x0 < 0 || x0 >= x1 || x1 > rt.w || y0 < 0 || y0 >= y1 || y1 > rt.h {
		return false, errPatchRect
	}
	bw := x1 - x0
	if len(patch) < bw*(y1-y0) {
		return false, errPatchShort
	}
	d, t1, t2, tx := c.refSubAbove(rt, x0, x1, y0, y1, func(gy int) []byte {
		off := (gy - y0) * bw
		return patch[off : off+bw]
	}, threshold)
	if d != 0 {
		return d > 0, nil
	}
	// Inconclusive: replay the exact sequential sweep (tables are already
	// built and still live in the scratch buffer).
	return c.refSubSweep(rt, x0, x1, y0, y1, t1, t2, tx) >= threshold, nil
}

// refSubAbove is the certified predicate behind RefSubPatchAbove and
// IndexRefBounded, for a candidate equal to rt's image outside the
// changed rectangle whose rows within it rowB returns (as for
// refSubPatch): +1 when the exact refSubSweep score is certainly at least
// threshold, −1 when it is certainly below, 0 when the two are too close
// for the reordered sum to tell. It tries the table-free deficitBound
// first; past that it builds the rectangle's delta tables
// (refSubTables) and returns them for the exact sweep.
func (c *Comparator) refSubAbove(rt *RefTable, x0, x1, y0, y1 int, rowB func(gy int) []byte, threshold float64) (d int, t1, t2, tx []uint64) {
	bw := x1 - x0
	w, h := rt.w, rt.h
	win := min(c.window, w, h)
	wLo, wHi, yLo, yHi := refSubBounds(w, h, win, x0, x1, y0, y1)
	bstride := bw + 1
	bh := y1 - y0
	fstride := w + 1
	invN := 1 / float64(win*win)
	cols := w - win + 1
	rows := h - win + 1
	n := cols * rows
	affected := (wHi - wLo + 1) * (yHi - yLo + 1)
	// |lhs − n·score| is bounded by the reordering error of both sums plus
	// the final division's rounding: each is ≤ (n−1)/2 · ε · Σ|terms| with
	// |windowStat| ≤ ~1.1, i.e. ≤ ~n²·ε. margin = 2e-9·n dominates that by
	// two or more orders of magnitude for any packed image (n ≤
	// maxPackedPixels) while still being far below any score-threshold gap
	// that occurs in practice.
	margin := 2e-9 * float64(n)
	rhs := threshold * float64(n)
	// Every window statistic is at most 1 in real arithmetic (AM-GM on
	// both windowStat factors) and its float64 evaluation involves only a
	// handful of roundings, so 1+1e-12 upper-bounds any windowStat value.
	// Once even perfect scores on the remaining affected windows cannot
	// lift the sum back over the threshold, the candidate is certifiably
	// below it and the sweep stops early — the common case for the ~2/3 of
	// homoglyph candidates the study rejects.
	const onePlus = 1 + 1e-12
	rejectAt := rhs - margin
	// n minus a lower bound on the summed deficit bounds n·score from
	// above in real arithmetic; margin covers the kernel's rounding.
	if float64(n)-c.deficitBound(rt, x0, x1, y0, y1, rowB, win) <= rejectAt {
		return -1, nil, nil, nil
	}
	t1, t2, tx = c.refSubTables(rt, x0, x1, y0, y1, rowB)
	var sum float64 // Σ windowStat over affected, non-identical windows
	ones := 0       // affected windows with zero net delta (exactly 1.0)
	processed := 0
	base := float64(n - affected)
	for y := yLo; y <= yHi; y++ {
		topA := rt.t[y*fstride:]
		botA := rt.t[(y+win)*fstride:]
		cy0 := y - y0
		if cy0 < 0 {
			cy0 = 0
		}
		cy1 := y + win - y0
		if cy1 > bh {
			cy1 = bh
		}
		dTop1 := t1[cy0*bstride:]
		dBot1 := t1[cy1*bstride:]
		dTop2 := t2[cy0*bstride:]
		dBot2 := t2[cy1*bstride:]
		dTopX := tx[cy0*bstride:]
		dBotX := tx[cy1*bstride:]
		for x := wLo; x <= wHi; x++ {
			xw := x + win
			cx0 := x - x0
			if cx0 < 0 {
				cx0 = 0
			}
			cx1 := xw - x0
			if cx1 > bw {
				cx1 = bw
			}
			d1 := int64(dBot1[cx1]) - int64(dTop1[cx1]) - int64(dBot1[cx0]) + int64(dTop1[cx0])
			d2 := int64(dBot2[cx1]) - int64(dTop2[cx1]) - int64(dBot2[cx0]) + int64(dTop2[cx0])
			dx := int64(dBotX[cx1]) - int64(dTopX[cx1]) - int64(dBotX[cx0]) + int64(dTopX[cx0])
			processed++
			if d1 == 0 && d2 == 0 && dx == 0 {
				ones++
				continue
			}
			sa := botA[xw] + topA[x] - topA[xw] - botA[x]
			saL := int64(uint32(sa))
			saH := int64(sa >> 32)
			sum += windowStat(
				float64(saL), float64(saL+d1),
				float64(saH), float64(saH+d2),
				float64(saH+dx), invN, c.c1, c.c2)
			if base+float64(ones)+sum+float64(affected-processed)*onePlus <= rejectAt {
				return -1, t1, t2, tx
			}
		}
	}
	// k identical windows contribute exactly 1.0 each in the exact kernel.
	lhs := base + float64(ones) + sum
	switch {
	case lhs >= rhs+margin:
		return 1, t1, t2, tx
	case lhs <= rhs-margin:
		return -1, t1, t2, tx
	}
	return 0, t1, t2, tx
}

// deficitBound returns a lower bound on Σ (1 − windowStat) over every
// window of the candidate refSubAbove describes, from one pass over the
// rectangle's pixels and no tables. Per window, with L and CS
// windowStat's two factors, 1 − L·CS ≥ max(1 − L, min(1, 1 − CS))
// because L ∈ (0, 1] and CS ≤ 1. Then 1 − L = M/(μa²+μb²+c1) ≥ M/K2 with
// M = (μa−μb)² and K2 = 2·255² + c1, and 1 − CS = V/(σa²+σb²+c2) ≥ V/K1
// with V the variance of a−b and K1 = 2·(255/2)² + c2 (a variance of
// values in [0, 255] is at most (255/2)²). As M + V = E[(a−b)²] ≤ 255² <
// K1 + K2, the window's deficit is at least E[(a−b)²]/(K1+K2), and
// summing that over the windows counts each pixel's (a−b)² once per
// window covering it. It mostly rejects candidates whose glyphs differ
// over a wide rectangle — a shifted or wholly substituted label — before
// any table is built.
func (c *Comparator) deficitBound(rt *RefTable, x0, x1, y0, y1 int, rowB func(gy int) []byte, win int) float64 {
	// Windows covering a pixel: per axis, the positions within win of it
	// that fit in the image — capX for every column in [m0, m1), fewer
	// towards the image's edges.
	capX, capY := min(win, rt.w-win+1), min(win, rt.h-win+1)
	m0 := min(max(x0, capX-1), x1)
	m1 := min(max(m0, rt.w-capX+1), x1)
	edge := func(ra, rb []byte, x0 int) (q uint64) {
		for i, a := range ra {
			d := int64(a) - int64(rb[i])
			q += uint64(d*d) * uint64(min(capX, x0+i+1, rt.w-x0-i))
		}
		return q
	}
	var q uint64 // Σ (a−b)² · windows covering the pixel, exact (< 2^53)
	for y := y0; y < y1; y++ {
		ra := rt.img.Pix[y*rt.img.Stride+x0 : y*rt.img.Stride+x1]
		rb := rowB(y)[:len(ra)]
		var mid uint64
		for i, a := range ra[m0-x0 : m1-x0] {
			d := int64(a) - int64(rb[m0-x0+i])
			mid += uint64(d * d)
		}
		qy := mid*uint64(capX) + edge(ra[:m0-x0], rb, x0) + edge(ra[m1-x0:], rb[m1-x0:], m1)
		q += qy * uint64(min(capY, y+1, rt.h-y))
	}
	k := 2*(dynamicRange/2)*(dynamicRange/2) + c.c2 + 2*dynamicRange*dynamicRange + c.c1
	// float64(q) is exact; the factor absorbs the two roundings after it.
	return float64(q) / (float64(win*win) * k) * (1 - 1e-12)
}

// refSubBounds computes the window-position range whose win×win span
// intersects the changed rectangle. The rectangle is already validated and
// non-empty, so both ranges are non-empty after clamping.
func refSubBounds(w, h, win, x0, x1, y0, y1 int) (wLo, wHi, yLo, yHi int) {
	wLo = x0 - win + 1
	if wLo < 0 {
		wLo = 0
	}
	wHi = x1 - 1
	if wHi > w-win {
		wHi = w - win
	}
	yLo = y0 - win + 1
	if yLo < 0 {
		yLo = 0
	}
	yHi = y1 - 1
	if yHi > h-win {
		yHi = h - win
	}
	return wLo, wHi, yLo, yHi
}

// refSubTables builds the three delta integral tables over the changed
// rectangle in the Comparator's scratch buffer:
//
// Every candidate window sum is the reference window sum plus the
// contribution of the changed pixels: Σb = Σa + Σ(b−a), Σb² = Σa² +
// Σ(b²−a²), Σab = Σa² + Σa·(b−a), with the correction terms supported
// only on the changed rectangle. All quantities are exact integers, so
// deriving the candidate sums from rt's table plus three tiny signed
// integral tables over the rectangle yields bit-for-bit the same
// float64 inputs as building full candidate tables — at O(rect area)
// build cost instead of O(W·H). Signed deltas are stored as
// two's-complement uint64 in the shared scratch.
func (c *Comparator) refSubTables(rt *RefTable, x0, x1, y0, y1 int, rowB func(gy int) []byte) (t1, t2, tx []uint64) {
	bw := x1 - x0
	bh := y1 - y0
	bstride := bw + 1
	bn := bstride * (bh + 1)
	buf := c.scratch(3 * bn)
	t1 = buf[0*bn : 1*bn] // Σ(b−a)
	t2 = buf[1*bn : 2*bn] // Σ(b²−a²)
	tx = buf[2*bn : 3*bn] // Σa·(b−a)
	for x := 0; x < bstride; x++ {
		t1[x], t2[x], tx[x] = 0, 0, 0
	}
	for y := 0; y < bh; y++ {
		gy := y0 + y
		rowA := rt.img.Pix[gy*rt.img.Stride+x0 : gy*rt.img.Stride+x1]
		rb := rowB(gy)
		prev := y * bstride
		cur := prev + bstride
		t1[cur], t2[cur], tx[cur] = 0, 0, 0
		var r1, r2, rx int64
		for x := 0; x < bw; x++ {
			pa := int64(rowA[x])
			pb := int64(rb[x])
			r1 += pb - pa
			r2 += pb*pb - pa*pa
			rx += pa * (pb - pa)
			t1[cur+x+1] = uint64(int64(t1[prev+x+1]) + r1)
			t2[cur+x+1] = uint64(int64(t2[prev+x+1]) + r2)
			tx[cur+x+1] = uint64(int64(tx[prev+x+1]) + rx)
		}
	}
	return t1, t2, tx
}

// refSubPatch is the changed-rect kernel behind IndexRefSubPatch: rowB
// returns the candidate pixels of image row gy restricted to the
// rectangle columns. The rectangle is already validated and non-empty.
func (c *Comparator) refSubPatch(rt *RefTable, x0, x1, y0, y1 int, rowB func(gy int) []byte) float64 {
	t1, t2, tx := c.refSubTables(rt, x0, x1, y0, y1, rowB)
	return c.refSubSweep(rt, x0, x1, y0, y1, t1, t2, tx)
}

// refSubSweep is the exact full-window sweep over previously built delta
// tables: it reproduces IndexRef's accumulation order bit for bit, with
// the leading all-ones prefix collapsed to its exact integer value.
func (c *Comparator) refSubSweep(rt *RefTable, x0, x1, y0, y1 int, t1, t2, tx []uint64) float64 {
	w, h := rt.w, rt.h
	win := min(c.window, w, h)
	wLo, wHi, yLo, yHi := refSubBounds(w, h, win, x0, x1, y0, y1)
	bw := x1 - x0
	bh := y1 - y0
	bstride := bw + 1
	fstride := w + 1
	cols := w - win + 1
	invN := 1 / float64(win*win)
	// Leading all-ones prefix (full rows above yLo plus the head of row
	// yLo): summing 1.0 k times from zero yields the exact integer k at
	// every step, so the collapsed prefix is bit-identical to the
	// sequential accumulation.
	sum := float64(yLo*cols + wLo)
	for y := yLo; y <= yHi; y++ {
		topA := rt.t[y*fstride:]
		botA := rt.t[(y+win)*fstride:]
		// Row intersection of the win-tall window with the rectangle,
		// in rectangle-local coordinates — constant across this row.
		cy0 := y - y0
		if cy0 < 0 {
			cy0 = 0
		}
		cy1 := y + win - y0
		if cy1 > bh {
			cy1 = bh
		}
		dTop1 := t1[cy0*bstride:]
		dBot1 := t1[cy1*bstride:]
		dTop2 := t2[cy0*bstride:]
		dBot2 := t2[cy1*bstride:]
		dTopX := tx[cy0*bstride:]
		dBotX := tx[cy1*bstride:]
		if y > yLo {
			// Identical windows left of the strip: exactly 1.0 each,
			// added one at a time to preserve the accumulation order
			// (the sum is no longer an integer here).
			for x := 0; x < wLo; x++ {
				sum += 1.0
			}
		}
		for x := wLo; x <= wHi; x++ {
			xw := x + win
			sa := botA[xw] + topA[x] - topA[xw] - botA[x]
			saL := int64(uint32(sa)) // Σa over the window
			saH := int64(sa >> 32)   // Σa² over the window
			// Column intersection with the rectangle.
			cx0 := x - x0
			if cx0 < 0 {
				cx0 = 0
			}
			cx1 := xw - x0
			if cx1 > bw {
				cx1 = bw
			}
			d1 := int64(dBot1[cx1]) - int64(dTop1[cx1]) - int64(dBot1[cx0]) + int64(dTop1[cx0])
			d2 := int64(dBot2[cx1]) - int64(dTop2[cx1]) - int64(dBot2[cx0]) + int64(dTop2[cx0])
			dx := int64(dBotX[cx1]) - int64(dTopX[cx1]) - int64(dBotX[cx0]) + int64(dTopX[cx0])
			if d1 == 0 && d2 == 0 && dx == 0 {
				// The changed pixels inside this window carry zero net
				// delta in all three statistics, so the candidate sums
				// equal the reference sums and the statistic is exactly
				// 1.0 — same value windowStat would return, skipped.
				// (Typical when the window covers only background rows of
				// the rectangle.)
				sum += 1.0
				continue
			}
			sum += windowStat(
				float64(saL), float64(saL+d1),
				float64(saH), float64(saH+d2),
				float64(saH+dx), invN, c.c1, c.c2)
		}
		for x := wHi + 1; x < cols; x++ {
			sum += 1.0
		}
	}
	// Trailing all-ones rows below yHi.
	for k := (h - win - yHi) * cols; k > 0; k-- {
		sum += 1.0
	}
	return sum / float64(cols*(h-win+1))
}

// windowStat folds the five window sums into one SSIM statistic. Shared
// by the integral-image and naive kernels so both use the exact same
// float64 expression order (bit-identical results). invN is 1/(win·win);
// for the default 8×8 window that reciprocal is a power of two, making
// the products exact — the fast path is then bit-identical to the
// historical divide-by-n formulation as well.
func windowStat(sumA, sumB, sumAA, sumBB, sumAB, invN, c1, c2 float64) float64 {
	muA := sumA * invN
	muB := sumB * invN
	varA := sumAA*invN - muA*muA
	varB := sumBB*invN - muB*muB
	covAB := sumAB*invN - muA*muB
	num := (2*muA*muB + c1) * (2*covAB + c2)
	den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
	return num / den
}
