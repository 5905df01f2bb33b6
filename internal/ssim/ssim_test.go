package ssim

import (
	"image"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"idnlab/internal/glyph"
)

func randomGray(r *rand.Rand, w, h int) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, w, h))
	for i := range img.Pix {
		img.Pix[i] = uint8(r.Intn(256))
	}
	return img
}

func TestIdenticalImagesScoreOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	img := randomGray(r, 40, 11)
	got, err := Index(img, img)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(a,a) = %v, want 1", got)
	}
}

func TestSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randomGray(r, 30, 11)
	b := randomGray(r, 30, 11)
	ab, err := Index(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Index(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("SSIM not symmetric: %v vs %v", ab, ba)
	}
}

func TestBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := randomGray(r, 20, 11)
		b := randomGray(r, 20, 11)
		v, err := Index(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("SSIM out of [-1,1]: %v", v)
		}
	}
}

func TestInverseImagesScoreLow(t *testing.T) {
	a := image.NewGray(image.Rect(0, 0, 16, 16))
	b := image.NewGray(image.Rect(0, 0, 16, 16))
	for i := range a.Pix {
		if (i/16+i%16)%2 == 0 {
			a.Pix[i] = 255
			b.Pix[i] = 0
		} else {
			a.Pix[i] = 0
			b.Pix[i] = 255
		}
	}
	v, err := Index(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v > -0.5 {
		t.Errorf("inverse checkerboards scored %v, want strongly negative", v)
	}
}

func TestSizeMismatch(t *testing.T) {
	a := image.NewGray(image.Rect(0, 0, 10, 11))
	b := image.NewGray(image.Rect(0, 0, 12, 11))
	if _, err := Index(a, b); err != ErrSizeMismatch {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
}

func TestEmptyImages(t *testing.T) {
	a := image.NewGray(image.Rect(0, 0, 0, 0))
	v, err := Index(a, a)
	if err != nil || v != 1 {
		t.Errorf("empty SSIM = %v, %v", v, err)
	}
}

func TestSmallImageDegradesToGlobalWindow(t *testing.T) {
	a := image.NewGray(image.Rect(0, 0, 3, 3))
	for i := range a.Pix {
		a.Pix[i] = 200
	}
	v, err := Index(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Errorf("tiny identical images = %v, want 1", v)
	}
}

// TestHomographOrdering is the load-bearing property for the detector: the
// SSIM of a homographic rendering against its target must exceed the SSIM
// of an unrelated domain, and small diacritic changes must stay above the
// paper's 0.95 threshold while different strings fall below it.
func TestHomographOrdering(t *testing.T) {
	re := glyph.NewRenderer()
	width := len("google.com") * glyph.CellWidth
	target := re.RenderWidth("google.com", width)

	cases := []struct {
		domain  string
		atLeast float64
		below   float64
	}{
		{"google.com", 1.0, 1.01},  // identical
		{"gооgle.com", 1.0, 1.01},  // Cyrillic о's — pixel identical
		{"googlé.com", 0.985, 1.0}, // one acute accent
		{"gõogle.com", 0.985, 1.0}, // one tilde
		{"goögle.com", 0.985, 1.0}, // one diaeresis
		{"boogle.com", 0.9, 0.985}, // different letter: below the mark band
		{"yahoo!.com", -1.0, 0.9},  // different brand
	}
	for _, tc := range cases {
		img := re.RenderWidth(tc.domain, width)
		v, err := Index(target, img)
		if err != nil {
			t.Fatal(err)
		}
		if v < tc.atLeast-1e-9 || v >= tc.below {
			t.Errorf("SSIM(google.com, %s) = %.4f, want [%v, %v)", tc.domain, v, tc.atLeast, tc.below)
		}
	}
}

func TestSSIMMonotoneInPerturbation(t *testing.T) {
	// More replaced letters => lower similarity, mirroring Table XII's
	// descending ladder.
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	target := re.RenderWidth("facebook.com", width)
	ladder := []string{
		"facebook.com", // 0 changes
		"facebóok.com", // 1 mark
		"fácebóok.com", // 2 marks
		"fáçebóok.com", // 3 marks
		"fáçebóök.com", // 4 marks
	}
	prev := 1.1
	for _, d := range ladder {
		img := re.RenderWidth(d, width)
		v, err := Index(target, img)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev+1e-9 {
			t.Errorf("SSIM(%s) = %.4f, not below previous %.4f", d, v, prev)
		}
		prev = v
	}
}

func TestQuickBoundsAndSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(seedA, seedB int64) bool {
		w := 8 + int(uint(seedA)%24)
		a := randomGray(rand.New(rand.NewSource(seedA)), w, 11)
		b := randomGray(rand.New(rand.NewSource(seedB)), w, 11)
		ab, err1 := Index(a, b)
		ba, err2 := Index(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(ab-ba) < 1e-12 && ab >= -1-1e-9 && ab <= 1+1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSizeSensitivity(t *testing.T) {
	// Smaller windows localize differences; results must stay in bounds
	// and keep identical == 1 for any window.
	re := glyph.NewRenderer()
	width := len("apple.com") * glyph.CellWidth
	a := re.RenderWidth("apple.com", width)
	b := re.RenderWidth("âpple.com", width)
	for _, win := range []int{2, 4, 8, 11, 16} {
		c := New(win)
		self, err := c.Index(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(self-1) > 1e-9 {
			t.Errorf("window %d: self SSIM = %v", win, self)
		}
		cross, err := c.Index(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if cross >= 1 || cross < -1 {
			t.Errorf("window %d: cross SSIM = %v out of range", win, cross)
		}
	}
}

func BenchmarkIndexDomainPair(b *testing.B) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	x := re.RenderWidth("facebook.com", width)
	y := re.RenderWidth("faceboôk.com", width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Index(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
