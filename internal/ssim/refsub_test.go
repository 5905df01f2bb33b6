package ssim

import (
	"image"
	"math"
	"math/rand"
	"testing"
)

// randGrayRS fills a w×h grayscale image (with a deliberately padded
// stride, to catch kernels that assume Stride == width).
func randGrayRS(rng *rand.Rand, w, h int) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, w, h))
	img.Stride = w + 3
	img.Pix = make([]uint8, img.Stride*h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	return img
}

// cloneWithRect copies a and re-randomizes only the rectangle of columns
// [x0, x1) and rows [y0, y1).
func cloneWithRect(rng *rand.Rand, a *image.Gray, x0, x1, y0, y1 int) *image.Gray {
	b := image.NewGray(a.Rect)
	b.Stride = a.Stride
	b.Pix = append([]uint8(nil), a.Pix...)
	w, h := a.Rect.Dx(), a.Rect.Dy()
	for y := max(0, y0); y < min(y1, h); y++ {
		for x := max(0, x0); x < min(x1, w); x++ {
			b.Pix[y*b.Stride+x] = uint8(rng.Intn(256))
		}
	}
	return b
}

// cloneWithCols copies a and re-randomizes only columns [x0, x1).
func cloneWithCols(rng *rand.Rand, a *image.Gray, x0, x1 int) *image.Gray {
	return cloneWithRect(rng, a, x0, x1, 0, a.Rect.Dy())
}

// TestIndexRefSubBitIdentical pins the changed-columns kernel to IndexRef
// bitwise: for images differing only inside [x0, x1), IndexRefSub must
// return the exact float64 IndexRef computes, across window clamping,
// edge-touching ranges, empty ranges and out-of-bounds ranges.
func TestIndexRefSubBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := New(DefaultWindow)
	dims := []struct{ w, h int }{
		{36, 11}, {48, 11}, {8, 8}, {9, 8}, {5, 11}, {2, 2}, {64, 17},
	}
	for _, d := range dims {
		a := randGrayRS(rng, d.w, d.h)
		rt := mustPrecompute(t, a)
		ranges := [][2]int{
			{0, 1}, {0, d.w}, {d.w - 1, d.w}, {d.w / 2, d.w/2 + 1},
			{d.w / 3, 2 * d.w / 3}, {5, 5}, {0, 0}, {-3, 2}, {d.w - 2, d.w + 7},
		}
		for r := 0; r < 6; r++ {
			lo := rng.Intn(d.w + 1)
			hi := lo + rng.Intn(d.w+1-lo)
			ranges = append(ranges, [2]int{lo, hi})
		}
		for _, pr := range ranges {
			b := cloneWithCols(rng, a, pr[0], pr[1])
			want, err := c.IndexRef(rt, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.IndexRefSub(rt, b, pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d cols [%d,%d): IndexRefSub = %v (%x), IndexRef = %v (%x)",
					d.w, d.h, pr[0], pr[1], got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestIndexRefSubRectBitIdentical pins the rectangle-restricted kernel to
// IndexRef bitwise: for images differing only inside a column and row
// rectangle, IndexRefSubRect must return the exact float64 IndexRef
// computes, including rectangles hugging the image edges, single-row
// bands (the diacritic-mark case) and degenerate empty rectangles.
func TestIndexRefSubRectBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c := New(DefaultWindow)
	dims := []struct{ w, h int }{
		{36, 11}, {48, 11}, {8, 8}, {9, 9}, {5, 11}, {2, 2}, {64, 17},
	}
	for _, d := range dims {
		a := randGrayRS(rng, d.w, d.h)
		rt := mustPrecompute(t, a)
		rects := [][4]int{
			{0, 5, 0, 2},                         // top-left mark band
			{0, 5, d.h - 2, d.h},                 // bottom mark band
			{d.w / 2, d.w/2 + 3, 0, 1},           // single row
			{0, d.w, 0, d.h},                     // full image
			{3, 4, 3, 4},                         // single pixel
			{2, 2, 0, d.h},                       // empty columns
			{0, d.w, 5, 5},                       // empty rows
			{-2, 3, -1, 2},                       // clamped low
			{d.w - 1, d.w + 4, d.h - 1, d.h + 3}, // clamped high
		}
		for r := 0; r < 8; r++ {
			x0 := rng.Intn(d.w + 1)
			x1 := x0 + rng.Intn(d.w+1-x0)
			y0 := rng.Intn(d.h + 1)
			y1 := y0 + rng.Intn(d.h+1-y0)
			rects = append(rects, [4]int{x0, x1, y0, y1})
		}
		for _, pr := range rects {
			b := cloneWithRect(rng, a, pr[0], pr[1], pr[2], pr[3])
			want, err := c.IndexRef(rt, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.IndexRefSubRect(rt, b, pr[0], pr[1], pr[2], pr[3])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d rect %v: IndexRefSubRect = %v (%x), IndexRef = %v (%x)",
					d.w, d.h, pr, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestIndexRefSubPatchBitIdentical pins the zero-materialization form: for
// a candidate that is never rendered — the reference plus a small pixel
// patch — IndexRefSubPatch must return the exact float64 IndexRef computes
// on the materialized candidate image.
func TestIndexRefSubPatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	c := New(DefaultWindow)
	dims := []struct{ w, h int }{
		{36, 11}, {48, 11}, {8, 8}, {9, 9}, {5, 11}, {2, 2}, {64, 17},
	}
	for _, d := range dims {
		a := randGrayRS(rng, d.w, d.h)
		rt := mustPrecompute(t, a)
		rects := [][4]int{
			{0, 5, 0, 2}, {d.w / 2, d.w/2 + 3, 0, 1}, {0, d.w, 0, d.h}, {3, 4, 3, 4},
		}
		for r := 0; r < 8; r++ {
			x0 := rng.Intn(d.w)
			x1 := x0 + 1 + rng.Intn(d.w-x0)
			y0 := rng.Intn(d.h)
			y1 := y0 + 1 + rng.Intn(d.h-y0)
			rects = append(rects, [4]int{x0, x1, y0, y1})
		}
		for _, pr := range rects {
			x0, x1, y0, y1 := pr[0], min(pr[1], d.w), pr[2], min(pr[3], d.h)
			if x0 >= x1 || y0 >= y1 {
				continue
			}
			// Build a random patch, materialize it into a candidate image,
			// and compare the two scoring routes.
			bw := x1 - x0
			patch := make([]byte, bw*(y1-y0))
			for i := range patch {
				patch[i] = uint8(rng.Intn(256))
			}
			b := cloneWithRect(rng, a, 0, 0, 0, 0) // exact copy
			for y := y0; y < y1; y++ {
				copy(b.Pix[y*b.Stride+x0:y*b.Stride+x1], patch[(y-y0)*bw:(y-y0+1)*bw])
			}
			want, err := c.IndexRef(rt, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.IndexRefSubPatch(rt, x0, x1, y0, y1, patch)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d rect %v: IndexRefSubPatch = %v (%x), IndexRef = %v (%x)",
					d.w, d.h, pr, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestIndexRefSubPatchErrors covers the patch kernel's contract checks:
// out-of-bounds or empty rectangles, short patches, and an empty table.
func TestIndexRefSubPatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := New(DefaultWindow)
	a := randGrayRS(rng, 20, 11)
	rt := mustPrecompute(t, a)
	patch := make([]byte, 20*11)
	cases := [][4]int{
		{-1, 3, 0, 2}, {0, 0, 0, 2}, {0, 21, 0, 2}, {0, 3, 5, 5}, {0, 3, 0, 12},
	}
	for _, pr := range cases {
		if _, err := c.IndexRefSubPatch(rt, pr[0], pr[1], pr[2], pr[3], patch); err == nil {
			t.Fatalf("rect %v: expected error", pr)
		}
	}
	if _, err := c.IndexRefSubPatch(rt, 0, 5, 0, 5, patch[:24]); err == nil {
		t.Fatal("short patch: expected error")
	}
	empty := mustPrecompute(t, randGrayRS(rng, 0, 11))
	if _, err := c.IndexRefSubPatch(empty, 0, 5, 0, 5, patch); err == nil {
		t.Fatal("empty table: expected error")
	}
}

// TestIndexRefSubPatchZeroAlloc pins the steady-state allocation count of
// the patch kernel: scoring a patch against a warm Comparator must not
// allocate.
func TestIndexRefSubPatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	c := New(DefaultWindow)
	a := randGrayRS(rng, 36, 11)
	rt := mustPrecompute(t, a)
	patch := make([]byte, 5*11)
	for i := range patch {
		patch[i] = uint8(rng.Intn(256))
	}
	if _, err := c.IndexRefSubPatch(rt, 12, 17, 0, 11, patch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.IndexRefSubPatch(rt, 12, 17, 0, 11, patch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IndexRefSubPatch allocates %v per call in steady state", allocs)
	}
}

// TestRefSubPatchAboveMatchesExact pins the certified threshold predicate
// to the exact kernel: RefSubPatchAbove(..., T) must equal
// IndexRefSubPatch(...) >= T for every threshold, including T exactly at
// the score and one ULP on either side of it — the degenerate cases that
// force the predicate through its exact-sweep fallback.
func TestRefSubPatchAboveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	c := New(DefaultWindow)
	dims := []struct{ w, h int }{
		{36, 11}, {60, 11}, {9, 9}, {2, 2}, {64, 17},
	}
	for _, d := range dims {
		a := randGrayRS(rng, d.w, d.h)
		rt := mustPrecompute(t, a)
		for trial := 0; trial < 10; trial++ {
			x0 := rng.Intn(d.w)
			x1 := x0 + 1 + rng.Intn(min(6, d.w-x0))
			y0 := rng.Intn(d.h)
			y1 := y0 + 1 + rng.Intn(d.h-y0)
			bw := x1 - x0
			patch := make([]byte, bw*(y1-y0))
			for i := range patch {
				patch[i] = uint8(rng.Intn(256))
			}
			score, err := c.IndexRefSubPatch(rt, x0, x1, y0, y1, patch)
			if err != nil {
				t.Fatal(err)
			}
			thresholds := []float64{
				score,
				math.Nextafter(score, 2),
				math.Nextafter(score, -2),
				score - 1e-10,
				score + 1e-10,
				0.98, 0.5, 0, 1, -1, 2,
				rng.Float64()*2 - 0.5,
			}
			for _, th := range thresholds {
				got, err := c.RefSubPatchAbove(rt, x0, x1, y0, y1, patch, th)
				if err != nil {
					t.Fatal(err)
				}
				if want := score >= th; got != want {
					t.Fatalf("%dx%d rect [%d,%d)x[%d,%d): Above(%v) = %v, score %v",
						d.w, d.h, x0, x1, y0, y1, th, got, score)
				}
			}
		}
	}
}

// TestRefSubPatchAboveZeroAlloc pins the predicate's steady-state
// allocation count: the availability sweep's per-candidate call must not
// allocate.
func TestRefSubPatchAboveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	c := New(DefaultWindow)
	a := randGrayRS(rng, 36, 11)
	rt := mustPrecompute(t, a)
	patch := make([]byte, 5*8)
	for i := range patch {
		patch[i] = uint8(rng.Intn(256))
	}
	if _, err := c.RefSubPatchAbove(rt, 12, 17, 2, 10, patch, 0.98); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.RefSubPatchAbove(rt, 12, 17, 2, 10, patch, 0.98); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RefSubPatchAbove allocates %v per call in steady state", allocs)
	}
}

// TestIndexRefSubIdenticalImages pins the empty-range short cut: an
// unchanged candidate must score exactly 1.0, matching IndexRef on a
// bit-identical pair.
func TestIndexRefSubIdenticalImages(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New(DefaultWindow)
	a := randGrayRS(rng, 30, 11)
	rt := mustPrecompute(t, a)
	b := cloneWithCols(rng, a, 0, 0)
	want, err := c.IndexRef(rt, b)
	if err != nil {
		t.Fatal(err)
	}
	if want != 1.0 {
		t.Fatalf("IndexRef on identical images = %v, want exactly 1.0", want)
	}
	got, err := c.IndexRefSub(rt, b, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.0 {
		t.Fatalf("IndexRefSub empty range = %v, want exactly 1.0", got)
	}
}

// TestIndexRefSubWideRefused: an image over the kernel's size bound,
// larger than any rendered DNS name, gets no RefTable, and a table
// refuses a candidate of another size.
func TestIndexRefSubWideRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := New(DefaultWindow)
	w, h := 3100, 11 // 34100 pixels > maxPackedPixels
	a := randGrayRS(rng, w, h)
	if rt, err := Precompute(a); err != ErrTooLarge || rt != nil {
		t.Fatalf("Precompute of %d pixels = %v, %v, want ErrTooLarge", w*h, rt, err)
	}
	if _, err := c.Index(a, a); err != ErrTooLarge {
		t.Fatalf("Index of %d pixels: error %v, want ErrTooLarge", w*h, err)
	}

	rt := mustPrecompute(t, randGrayRS(rng, 40, h))
	small := randGrayRS(rng, 10, 10)
	if _, err := c.IndexRefSub(rt, small, 0, 1); err != ErrSizeMismatch {
		t.Fatalf("size mismatch error = %v, want ErrSizeMismatch", err)
	}
}

// TestIndexRefSubZeroAlloc pins the steady-state allocation count of the
// changed-columns kernel: after warm-up, scoring patched candidates must
// not allocate.
func TestIndexRefSubZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := New(DefaultWindow)
	a := randGrayRS(rng, 36, 11)
	rt := mustPrecompute(t, a)
	b := cloneWithCols(rng, a, 12, 17)
	if _, err := c.IndexRefSub(rt, b, 12, 17); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.IndexRefSub(rt, b, 12, 17); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IndexRefSub allocates %v per call in steady state", allocs)
	}
}
