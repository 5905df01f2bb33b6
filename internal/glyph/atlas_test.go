package glyph

// Tests for the shared immutable glyph atlas and the zero-alloc
// RenderWidthInto path. The concurrency test is exercised under `make
// race` in CI: one Renderer shared by many goroutines, mixed designed /
// composed / hash-glyph repertoire.

import (
	"image"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestSharedRendererConcurrent(t *testing.T) {
	re := NewRenderer()
	domains := []string{
		"facebook.com", "fаcebook.com", "gõogle.com", "中文网址.com",
		"ạppleід.com", "xn--fiqs8s", "ABC-ÐΞ.net", "",
	}
	want := make([]*image.Gray, len(domains))
	for i, d := range domains {
		want[i] = re.Render(d)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch *image.Gray
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(domains)
				got := re.Render(domains[i])
				if !sameImage(got, want[i]) {
					errs <- "concurrent Render diverged for " + domains[i]
					return
				}
				// The Into path with a goroutine-private buffer must be
				// just as stable.
				scratch = re.RenderWidthInto(scratch, domains[i], want[i].Rect.Dx())
				if !sameImage(scratch, want[i]) {
					errs <- "concurrent RenderWidthInto diverged for " + domains[i]
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestZeroValueRendererUsable(t *testing.T) {
	var re Renderer // zero value falls back to the shared atlas
	if !sameImage(re.Render("abc"), NewRenderer().Render("abc")) {
		t.Error("zero-value Renderer renders differently")
	}
}

func TestRenderWidthIntoMatchesRenderWidth(t *testing.T) {
	re := NewRenderer()
	var buf *image.Gray
	cases := []struct {
		s     string
		width int
	}{
		{"apple.com", 9 * CellWidth},
		{"ab", 10 * CellWidth},      // pad
		{"abcdefgh", 2 * CellWidth}, // truncate
		{"中文", 2 * CellWidth},
		{"", 0},
		{"x", -3},                    // negative clamps to 0
		{"apple.com", 9 * CellWidth}, // shrink buffer back up
	}
	for _, tc := range cases {
		want := re.RenderWidth(tc.s, tc.width)
		buf = re.RenderWidthInto(buf, tc.s, tc.width)
		if !sameImage(buf, want) {
			t.Errorf("RenderWidthInto(%q, %d) differs from RenderWidth", tc.s, tc.width)
		}
	}
}

// TestRenderWidthIntoNoStaleInk renders a heavily-inked string, then a
// lightly-inked one into the same buffer: no pixels from the first render
// may survive.
func TestRenderWidthIntoNoStaleInk(t *testing.T) {
	re := NewRenderer()
	buf := re.RenderWidthInto(nil, "wwwwwwww", 8*CellWidth)
	heavy := countInk(buf)
	buf = re.RenderWidthInto(buf, "........", 8*CellWidth)
	want := re.RenderWidth("........", 8*CellWidth)
	if !sameImage(buf, want) {
		t.Fatal("stale ink leaked between RenderWidthInto calls")
	}
	if countInk(buf) >= heavy {
		t.Fatal("sanity: dots should ink fewer pixels than w's")
	}
}

// TestRenderWidthIntoZeroAlloc pins the steady-state allocation contract
// of the corpus-scan render path.
func TestRenderWidthIntoZeroAlloc(t *testing.T) {
	re := NewRenderer()
	width := 12 * CellWidth
	buf := re.RenderWidthInto(nil, "warmup.example", width)
	domains := []string{"facebook.com", "fаcebook.com", "gõogle.com", "中文网址集合拼.com"}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = re.RenderWidthInto(buf, domains[i%len(domains)], width)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state RenderWidthInto allocates %v per run, want 0", allocs)
	}
}

func TestAtlasCoversDesignedRepertoire(t *testing.T) {
	m := atlas()
	for r := range baseFont {
		if _, ok := m[r]; !ok {
			t.Errorf("atlas missing base glyph %q", r)
		}
	}
	for r := range composed {
		if _, ok := m[r]; !ok {
			t.Errorf("atlas missing composed glyph %q", r)
		}
	}
	// Atlas cells must equal direct rasterization.
	for _, r := range []rune{'a', 'z', '0', '-', 'á', 'ạ', 'ö', 'ѕ'} {
		if m[r] != rasterize(r) {
			t.Errorf("atlas cell for %q differs from rasterize", r)
		}
	}
}

// TestRenderWidthIntoIsCellBits pins every pixel of a render to the
// glyph cells: ink exactly where the rune's cell has a bit set and the
// column is inside the width, background everywhere else — so a render
// at one width is the leading columns of any wider render.
func TestRenderWidthIntoIsCellBits(t *testing.T) {
	re := NewRenderer()
	var buf *image.Gray
	for _, s := range []string{"apple.com", "аррӏе", "faceboôk.com", "中文网址", "", "a"} {
		n := utf8.RuneCountInString(s)
		for _, width := range []int{0, 1, 4, n*CellWidth - 1, n * CellWidth, (n + 2) * CellWidth} {
			if width < 0 {
				continue
			}
			buf = re.RenderWidthInto(buf, s, width)
			runes := []rune(s)
			for y := 0; y < CellHeight; y++ {
				for x := 0; x < width; x++ {
					want := uint8(backgroundPixel)
					if i, col := x/CellWidth, x%CellWidth; i < len(runes) && col < baseWidth && re.CellBits(runes[i])[y]&(1<<col) != 0 {
						want = inkPixel
					}
					if got := buf.Pix[y*buf.Stride+x]; got != want {
						t.Fatalf("%q at width %d: pixel (%d, %d) = %d, want %d", s, width, x, y, got, want)
					}
				}
			}
		}
	}
}
