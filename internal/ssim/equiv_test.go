package ssim

// Equivalence layer for the integral-image kernel: the fast SSIM path
// must agree with the naive reference (export_test.go) on every input —
// including degenerate shapes — within 1e-9 (in practice they are
// bit-identical, since both kernels see exact integer window sums and
// share windowStat).

import (
	"image"
	"math"
	"math/rand"
	"testing"

	"idnlab/internal/glyph"
)

// equivSizes covers the degenerate corners the kernel must survive:
// 0-width, 0-height, 1×1, single row/column, window-larger-than-image,
// realistic rendered-domain shapes (width ≫ height, CellHeight rows), and
// shapes past maxPackedPixels, which every kernel entry point must refuse
// (tooLarge).
var equivSizes = [][2]int{
	{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3},
	{8, 8}, {7, 11}, {11, 7}, {2, 33}, {33, 2}, {48, 15}, {90, 15},
	{260, 140}, // 36400 px > maxPackedPixels: refused
	{3001, 11}, // one column past the bound at glyph height: refused
}

// tooLarge reports whether a shape is past the kernel's bound.
func tooLarge(sz [2]int) bool { return sz[0]*sz[1] > maxPackedPixels }

func TestIndexMatchesNaiveProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 2018} {
		r := rand.New(rand.NewSource(seed))
		for _, sz := range equivSizes {
			a := randomGray(r, sz[0], sz[1])
			b := randomGray(r, sz[0], sz[1])
			for _, win := range []int{2, 3, 8, 16} {
				c := New(win)
				fast, errF := c.Index(a, b)
				if tooLarge(sz) {
					if errF != ErrTooLarge {
						t.Fatalf("size %v: Index error %v, want ErrTooLarge", sz, errF)
					}
					continue
				}
				naive, errN := c.IndexNaive(a, b)
				if (errF == nil) != (errN == nil) {
					t.Fatalf("seed %d size %v win %d: error mismatch %v vs %v", seed, sz, win, errF, errN)
				}
				if errF != nil {
					continue
				}
				if math.Abs(fast-naive) > 1e-9 {
					t.Fatalf("seed %d size %v win %d: fast %v vs naive %v", seed, sz, win, fast, naive)
				}
			}
		}
	}
}

// TestIndexRefMatchesIndex pins the cached-reference path: IndexRef over a
// Precomputed table must be bit-identical to the plain pair kernel (and so,
// transitively, to IndexNaive) on every shape, including the table-less
// empty fallback, must refuse the shapes Index refuses, and must reject
// mismatched sizes the same way.
func TestIndexRefMatchesIndex(t *testing.T) {
	for _, seed := range []int64{9, 13, 2018} {
		r := rand.New(rand.NewSource(seed))
		for _, sz := range equivSizes {
			a := randomGray(r, sz[0], sz[1])
			b := randomGray(r, sz[0], sz[1])
			rt, err := Precompute(a)
			if tooLarge(sz) {
				if err != ErrTooLarge {
					t.Fatalf("size %v: Precompute error %v, want ErrTooLarge", sz, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if rt.img != a {
				t.Fatalf("size %v: the table does not keep its image", sz)
			}
			for _, win := range []int{2, 8, 16} {
				c := New(win)
				pair, errP := c.Index(a, b)
				ref, errR := c.IndexRef(rt, b)
				if (errP == nil) != (errR == nil) {
					t.Fatalf("seed %d size %v win %d: error mismatch %v vs %v", seed, sz, win, errP, errR)
				}
				if errP != nil {
					continue
				}
				if pair != ref {
					t.Fatalf("seed %d size %v win %d: Index %v != IndexRef %v (want bit-identical)",
						seed, sz, win, pair, ref)
				}
			}
		}
	}
	// Mismatched candidate size must fail exactly like Index.
	rt := mustPrecompute(t, image.NewGray(image.Rect(0, 0, 8, 8)))
	if _, err := New(8).IndexRef(rt, image.NewGray(image.Rect(0, 0, 7, 8))); err != ErrSizeMismatch {
		t.Fatalf("size mismatch: got %v, want ErrSizeMismatch", err)
	}
}

// TestIndexRefZeroAllocSteadyState: the cached-reference scan path must
// not allocate once the comparator scratch is sized.
func TestIndexRefZeroAllocSteadyState(t *testing.T) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	rt := mustPrecompute(t, re.RenderWidth("facebook.com", width))
	y := re.RenderWidth("faceboôk.com", width)
	c := New(DefaultWindow)
	if _, err := c.IndexRef(rt, y); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.IndexRef(rt, y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state IndexRef allocates %v per run, want 0", allocs)
	}
}

// TestEquivalenceOnRenderedDomains pins the equivalence on the images the
// detector actually compares: rendered domain pairs, including identical,
// single-mark and unrelated pairs.
func TestEquivalenceOnRenderedDomains(t *testing.T) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	target := re.RenderWidth("facebook.com", width)
	c := New(DefaultWindow)
	for _, domain := range []string{
		"facebook.com", "facebооk.com", "facebóok.com", "faceb00k.com",
		"yahoo.co.jp", "中文网址示例集合", "",
	} {
		img := re.RenderWidth(domain, width)
		fast, err1 := c.Index(target, img)
		naive, err2 := c.IndexNaive(target, img)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: %v / %v", domain, err1, err2)
		}
		if fast != naive {
			t.Errorf("%q: fast %v != naive %v (want bit-identical)", domain, fast, naive)
		}
	}
}

// TestWindowClamping pins the clamping behavior the former count==0
// fallback pretended to handle: after win is clamped to min(window, w, h)
// the window loops always execute, so 1×1 images and windows larger than
// either dimension take the normal path.
func TestWindowClamping(t *testing.T) {
	// 1×1 identical images: variance 0, so SSIM is exactly 1.
	one := image.NewGray(image.Rect(0, 0, 1, 1))
	one.Pix[0] = 137
	for _, win := range []int{2, 8, 100} {
		v, err := New(win).Index(one, one)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1 {
			t.Errorf("win %d on 1×1 identical: SSIM = %v, want exactly 1", win, v)
		}
	}
	// 1×1 differing images: still defined, still in [-1, 1].
	two := image.NewGray(image.Rect(0, 0, 1, 1))
	two.Pix[0] = 9
	v, err := New(64).Index(one, two)
	if err != nil {
		t.Fatal(err)
	}
	if v < -1 || v > 1 {
		t.Errorf("1×1 differing SSIM out of range: %v", v)
	}
	// Window larger than both dimensions degrades to one global window:
	// the result must equal the explicitly-global comparison.
	r := rand.New(rand.NewSource(8))
	a := randomGray(r, 5, 3)
	b := randomGray(r, 5, 3)
	big, err := New(999).Index(a, b)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New(999).IndexNaive(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if big != naive {
		t.Errorf("win>dims: fast %v != naive %v", big, naive)
	}
}

// TestComparatorScratchReuseIsClean verifies the reusable summed-area
// buffer cannot leak state between pairs of different sizes: growing then
// shrinking then growing again always reproduces fresh-comparator results.
func TestComparatorScratchReuseIsClean(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := New(DefaultWindow)
	shapes := [][2]int{{40, 15}, {6, 6}, {90, 15}, {1, 1}, {40, 15}}
	for i, sz := range shapes {
		a := randomGray(r, sz[0], sz[1])
		b := randomGray(r, sz[0], sz[1])
		reused, err := c.Index(a, b)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(DefaultWindow).Index(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if reused != fresh {
			t.Fatalf("step %d size %v: reused scratch %v != fresh %v", i, sz, reused, fresh)
		}
	}
}

// TestIndexZeroAllocSteadyState pins the kernel's allocation contract:
// after the first call sizes the scratch, comparisons allocate nothing.
func TestIndexZeroAllocSteadyState(t *testing.T) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	x := re.RenderWidth("facebook.com", width)
	y := re.RenderWidth("faceboôk.com", width)
	c := New(DefaultWindow)
	if _, err := c.Index(x, y); err != nil { // size the scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Index(x, y); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Index allocates %v per run, want 0", allocs)
	}
}

// TestIndexRefBoundedContract pins the early-exit kernel's two-sided
// contract against IndexRef on random images, similar pairs (mostly
// identical pixels, so scores land near 1 where the floors bite), and
// every degenerate shape: ok=true must come with a bit-identical score
// ≥ floor, ok=false must only ever happen when the exact score is
// strictly below the floor.
func TestIndexRefBoundedContract(t *testing.T) {
	floors := []float64{-2, 0, 0.5, 0.9, 0.95, 0.98, 0.999, 1, 1.5}
	for _, seed := range []int64{1, 9, 2018} {
		r := rand.New(rand.NewSource(seed))
		for _, sz := range equivSizes {
			if tooLarge(sz) {
				continue // refused (TestIndexRefMatchesIndex)
			}
			a := randomGray(r, sz[0], sz[1])
			rt := mustPrecompute(t, a)
			for _, mode := range []string{"random", "similar"} {
				var b *image.Gray
				if mode == "random" {
					b = randomGray(r, sz[0], sz[1])
				} else {
					b = image.NewGray(a.Rect)
					copy(b.Pix, a.Pix)
					for i := 0; i < len(b.Pix)/37; i++ {
						b.Pix[r.Intn(len(b.Pix))] ^= byte(r.Intn(256))
					}
				}
				for _, win := range []int{2, 8} {
					c := New(win)
					exact, errE := c.IndexRef(rt, b)
					for _, floor := range floors {
						got, ok, err := New(win).IndexRefBounded(rt, b, floor)
						if (err == nil) != (errE == nil) {
							t.Fatalf("size %v floor %v: error mismatch %v vs %v", sz, floor, err, errE)
						}
						if err != nil {
							continue
						}
						if ok {
							if got != exact {
								t.Fatalf("size %v win %d floor %v: ok but %v != exact %v", sz, win, floor, got, exact)
							}
							if got < floor {
								t.Fatalf("size %v win %d floor %v: ok with score %v below floor", sz, win, floor, got)
							}
						} else if !(exact < floor) {
							t.Fatalf("size %v win %d floor %v: early exit but exact %v >= floor", sz, win, floor, exact)
						}
					}
				}
			}
		}
	}

	// The shapes of the rectangle where a rendered candidate differs from
	// its brand, the kernel's only input beyond the brand's table; each
	// against IndexRef (bit for bit) and IndexNaive, at the fixed floors
	// and at the pair's own exact score.
	re := glyph.NewRenderer()
	const brand = "paypal.com"
	w := len(brand) * glyph.CellWidth
	ref := re.RenderWidth(brand, w)
	rt := mustPrecompute(t, ref)
	wide := re.RenderWidth("paypäl.com", w+3*glyph.CellWidth)
	shapes := []struct {
		name string
		b    *image.Gray
	}{
		{"identical", re.RenderWidth(brand, w)},
		{"one changed cell", re.RenderWidth("paypäl.com", w)},
		{"first and last cells", re.RenderWidth("qaypal.cam", w)},
		{"one cell longer, truncated", re.RenderWidth("paypall.com", w)},
		{"one cell shorter, padded", re.RenderWidth("paypl.com", w)},
		{"view narrower than its stride", &image.Gray{Pix: wide.Pix, Stride: wide.Stride, Rect: image.Rect(0, 0, w, glyph.CellHeight)}},
	}
	for _, sh := range shapes {
		for _, win := range []int{2, 8} {
			c := New(win)
			exact, err := c.IndexRef(rt, sh.b)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := c.IndexNaive(ref, sh.b)
			if err != nil {
				t.Fatal(err)
			}
			if exact != naive {
				t.Fatalf("%s win %d: IndexRef %v != IndexNaive %v", sh.name, win, exact, naive)
			}
			if sh.name == "identical" && exact != 1 {
				t.Fatalf("identical images score %v", exact)
			}
			for _, floor := range append(floors, exact, math.Nextafter(exact, 2)) {
				got, ok, err := c.IndexRefBounded(rt, sh.b, floor)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (exact >= floor) || ok && got != exact {
					t.Fatalf("%s win %d floor %v: (%v, %v), exact %v", sh.name, win, floor, got, ok, exact)
				}
			}
		}
	}
}

// TestDeficitBoundIsALowerBound pins the table-free certificate: it never
// exceeds the real total deficit Σ (1 − window statistic), on random
// pairs and on rendered names with their changed rectangles.
func TestDeficitBoundIsALowerBound(t *testing.T) {
	check := func(name string, a, b *image.Gray, win int) {
		t.Helper()
		w, h := a.Rect.Dx(), a.Rect.Dy()
		c := New(win)
		win = min(win, w, h)
		var deficit float64
		for y := 0; y+win <= h; y++ {
			for x := 0; x+win <= w; x++ {
				deficit += 1 - c.windowSSIM(a, b, x, y, win)
			}
		}
		rt := mustPrecompute(t, a)
		x0, x1, y0, y1 := diffRect(a, b, w, h)
		if x0 >= x1 {
			return
		}
		bound := c.deficitBound(rt, x0, x1, y0, y1, func(gy int) []byte {
			return b.Pix[gy*b.Stride+x0 : gy*b.Stride+x1]
		}, win)
		if bound > deficit*(1+1e-9) {
			t.Fatalf("%s win %d: bound %v above the deficit %v", name, win, bound, deficit)
		}
	}
	r := rand.New(rand.NewSource(5))
	for _, sz := range equivSizes {
		if sz[0] == 0 || sz[1] == 0 || tooLarge(sz) {
			continue
		}
		a := randomGray(r, sz[0], sz[1])
		b := randomGray(r, sz[0], sz[1])
		inv := image.NewGray(a.Rect)
		for i, p := range a.Pix {
			inv.Pix[i] = 255 - p
		}
		for _, win := range []int{2, 8} {
			check("random", a, b, win)
			check("inverse", a, inv, win)
		}
	}
	re := glyph.NewRenderer()
	w := len("facebook.com") * glyph.CellWidth
	target := re.RenderWidth("facebook.com", w)
	for _, d := range []string{"facebóok.com", "faceb00k.com", "acebook.com", "yahoo.co.jp", "中文网址示例集合"} {
		check(d, target, re.RenderWidth(d, w), DefaultWindow)
	}
}

// TestIndexRefBoundedZeroAlloc: the bounded path must stay on the
// comparator's scratch like IndexRef does.
func TestIndexRefBoundedZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randomGray(r, 96, 15)
	b := randomGray(r, 96, 15)
	c := New(DefaultWindow)
	rt := mustPrecompute(t, a)
	if _, _, err := c.IndexRefBounded(rt, b, 0.98); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := c.IndexRefBounded(rt, b, 0.98); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IndexRefBounded allocates %v per call", allocs)
	}
}
