package ssim

import (
	"image"
	"testing"
)

// Index computes the mean SSIM index with the default window size. It
// builds a throwaway Comparator; hot paths should hold one Comparator and
// reuse its scratch buffer across pairs.
func Index(a, b *image.Gray) (float64, error) {
	return New(DefaultWindow).Index(a, b)
}

// mustPrecompute is Precompute for an image inside the kernel's bound.
func mustPrecompute(t testing.TB, img *image.Gray) *RefTable {
	t.Helper()
	rt, err := Precompute(img)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// IndexRefSubRect is IndexRefSubPatch for a candidate image b that
// differs from the reference only within columns [x0, x1) and rows
// [y0, y1), clamped to the image; an empty table falls back to Index.
func (c *Comparator) IndexRefSubRect(rt *RefTable, b *image.Gray, x0, x1, y0, y1 int) (float64, error) {
	if rt.w != b.Rect.Dx() || rt.h != b.Rect.Dy() {
		return 0, ErrSizeMismatch
	}
	if rt.t == nil {
		return c.Index(rt.img, b) // empty
	}
	w, h := rt.w, rt.h
	if x0 < 0 {
		x0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y0 < 0 {
		y0 = 0
	}
	if y1 > h {
		y1 = h
	}
	if x0 >= x1 || y0 >= y1 {
		// Nothing changed: every window is bit-identical, every window
		// statistic is exactly 1.0, and the mean of exact 1.0s is 1.0.
		return 1, nil
	}
	return c.refSubPatch(rt, x0, x1, y0, y1, func(gy int) []byte {
		return b.Pix[gy*b.Stride+x0 : gy*b.Stride+x1]
	}), nil
}

// IndexRefSub is IndexRefSubRect over the full row range: b differs
// from the reference only within pixel columns [x0, x1).
func (c *Comparator) IndexRefSub(rt *RefTable, b *image.Gray, x0, x1 int) (float64, error) {
	return c.IndexRefSubRect(rt, b, x0, x1, 0, rt.h)
}

// IndexNaive is the reference implementation of Index: it recomputes every
// window's five sums directly from the pixels, O(W·H·win²), for the
// equivalence property tests.
func (c *Comparator) IndexNaive(a, b *image.Gray) (float64, error) {
	w, h := a.Rect.Dx(), a.Rect.Dy()
	if w != b.Rect.Dx() || h != b.Rect.Dy() {
		return 0, ErrSizeMismatch
	}
	if w == 0 || h == 0 {
		return 1, nil
	}
	win := min(c.window, w, h)
	var sum float64
	var count int
	for y := 0; y+win <= h; y++ {
		for x := 0; x+win <= w; x++ {
			sum += c.windowSSIM(a, b, x, y, win)
			count++
		}
	}
	return sum / float64(count), nil
}

// windowSSIM computes the SSIM statistic over one win x win window by
// direct summation — the reference kernel.
func (c *Comparator) windowSSIM(a, b *image.Gray, x0, y0, win int) float64 {
	invN := 1 / float64(win*win)
	var sumA, sumB, sumAA, sumBB, sumAB float64
	for y := y0; y < y0+win; y++ {
		rowA := a.Pix[y*a.Stride:]
		rowB := b.Pix[y*b.Stride:]
		for x := x0; x < x0+win; x++ {
			pa := float64(rowA[x])
			pb := float64(rowB[x])
			sumA += pa
			sumB += pb
			sumAA += pa * pa
			sumBB += pb * pb
			sumAB += pa * pb
		}
	}
	return windowStat(sumA, sumB, sumAA, sumBB, sumAB, invN, c.c1, c.c2)
}
