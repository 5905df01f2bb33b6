package glyph

import (
	"image"
	"testing"
)

func countInk(img *image.Gray) int {
	n := 0
	for _, p := range img.Pix {
		if p == inkPixel {
			n++
		}
	}
	return n
}

func sameImage(a, b *image.Gray) bool {
	if a.Rect != b.Rect {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

func TestBaseFontShapes(t *testing.T) {
	for r, rows := range baseFont {
		ink := 0
		for y, row := range rows {
			if len(row) != baseWidth {
				t.Fatalf("glyph %q row %d has width %d", r, y, len(row))
			}
			for _, c := range row {
				if c != '#' && c != '.' {
					t.Fatalf("glyph %q contains invalid pixel char %q", r, c)
				}
				if c == '#' {
					ink++
				}
			}
		}
		if ink < 2 {
			t.Errorf("glyph %q has almost no ink (%d pixels)", r, ink)
		}
	}
}

func TestBaseGlyphsDistinct(t *testing.T) {
	re := NewRenderer()
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < len(letters); i++ {
		for j := i + 1; j < len(letters); j++ {
			a := re.Render(string(letters[i]))
			b := re.Render(string(letters[j]))
			if sameImage(a, b) {
				t.Errorf("glyphs %q and %q are identical", letters[i], letters[j])
			}
		}
	}
}

func TestIdenticalHomoglyphsRenderIdentically(t *testing.T) {
	re := NewRenderer()
	pairs := []struct{ uni, ascii string }{
		{"а", "a"}, {"е", "e"}, {"о", "o"}, {"р", "p"}, {"с", "c"},
		{"ѕ", "s"}, {"х", "x"}, {"у", "y"}, {"ο", "o"}, {"ԛ", "q"},
	}
	for _, p := range pairs {
		if !sameImage(re.Render(p.uni), re.Render(p.ascii)) {
			t.Errorf("%q should render identically to %q", p.uni, p.ascii)
		}
	}
}

func TestSosoAttackRendersIdentically(t *testing.T) {
	// The all-Cyrillic ѕоѕо vs Latin soso — the Firefox bypass of §VI-A.
	re := NewRenderer()
	if !sameImage(re.Render("ѕоѕо"), re.Render("soso")) {
		t.Error("whole-script confusable should be pixel-identical")
	}
}

func TestMarkedGlyphsDifferSlightly(t *testing.T) {
	re := NewRenderer()
	cases := []struct{ marked, base string }{
		{"á", "a"}, {"ạ", "a"}, {"ö", "o"}, {"ç", "c"}, {"š", "s"},
	}
	for _, tc := range cases {
		m := re.Render(tc.marked)
		b := re.Render(tc.base)
		if sameImage(m, b) {
			t.Errorf("%q should differ from %q", tc.marked, tc.base)
		}
		diff := 0
		for i := range m.Pix {
			if m.Pix[i] != b.Pix[i] {
				diff++
			}
		}
		if diff > 8 {
			t.Errorf("%q vs %q differ by %d pixels; marks should be small", tc.marked, tc.base, diff)
		}
	}
}

func TestUppercaseFolds(t *testing.T) {
	re := NewRenderer()
	if !sameImage(re.Render("APPLE"), re.Render("apple")) {
		t.Error("uppercase should fold to lowercase rendering")
	}
}

func TestHashGlyphStable(t *testing.T) {
	a := rasterize('中')
	b := rasterize('中')
	if a != b {
		t.Error("hash glyph not deterministic")
	}
}

func TestHashGlyphsDistinct(t *testing.T) {
	seen := make(map[[CellHeight]uint8]rune)
	for r := rune(0x4E00); r < 0x4E00+500; r++ {
		c := rasterize(r)
		if prev, ok := seen[c]; ok {
			t.Fatalf("hash glyph collision: U+%04X and U+%04X", prev, r)
		}
		seen[c] = r
	}
}

func TestHashGlyphNeverMatchesLatin(t *testing.T) {
	re := NewRenderer()
	for _, latin := range "aeops" {
		for r := rune(0x4E00); r < 0x4E00+200; r++ {
			if sameImage(re.Render(string(latin)), re.Render(string(r))) {
				t.Fatalf("CJK U+%04X renders same as %q", r, latin)
			}
		}
	}
}

func TestRenderDimensions(t *testing.T) {
	re := NewRenderer()
	img := re.Render("apple.com")
	wantW := len([]rune("apple.com")) * CellWidth
	if img.Rect.Dx() != wantW || img.Rect.Dy() != CellHeight {
		t.Errorf("dims = %dx%d, want %dx%d", img.Rect.Dx(), img.Rect.Dy(), wantW, CellHeight)
	}
}

func TestRenderWidthPadsAndTruncates(t *testing.T) {
	re := NewRenderer()
	padded := re.RenderWidth("ab", 10*CellWidth)
	if padded.Rect.Dx() != 10*CellWidth {
		t.Fatalf("padded width = %d", padded.Rect.Dx())
	}
	// Right side must be pure background.
	for y := 0; y < CellHeight; y++ {
		for x := 3 * CellWidth; x < 10*CellWidth; x++ {
			if padded.GrayAt(x, y).Y != backgroundPixel {
				t.Fatalf("padding inked at (%d,%d)", x, y)
			}
		}
	}
	trunc := re.RenderWidth("abcdefgh", 2*CellWidth)
	if trunc.Rect.Dx() != 2*CellWidth {
		t.Fatalf("truncated width = %d", trunc.Rect.Dx())
	}
	if countInk(trunc) == 0 {
		t.Fatal("truncated image lost all ink")
	}
}

func TestRenderEmptyString(t *testing.T) {
	re := NewRenderer()
	img := re.Render("")
	if img.Rect.Dx() != 0 {
		t.Errorf("empty render width = %d", img.Rect.Dx())
	}
}

func TestRenderWidthNegative(t *testing.T) {
	re := NewRenderer()
	if img := re.RenderWidth("a", -5); img.Rect.Dx() != 0 {
		t.Error("negative width should clamp to 0")
	}
}

func TestComposedAllHaveValidBases(t *testing.T) {
	for r, sp := range composed {
		if _, ok := baseFont[sp.base]; !ok {
			t.Errorf("composed %q has base %q with no font glyph", r, sp.base)
		}
	}
}

func TestInkOverlap(t *testing.T) {
	if v := InkOverlap('a', 'а'); v != 1.0 {
		t.Errorf("identical homoglyph overlap = %v, want 1.0", v)
	}
	if v := InkOverlap('a', 'a'); v != 1.0 {
		t.Errorf("self overlap = %v", v)
	}
	av := InkOverlap('a', 'á')
	if av <= 0.7 || av >= 1.0 {
		t.Errorf("a vs á overlap = %v, want high but below 1", av)
	}
	lo := InkOverlap('a', 'z')
	hi := InkOverlap('a', 'á')
	if lo >= hi {
		t.Errorf("a/z overlap (%v) should be below a/á (%v)", lo, hi)
	}
	if v := InkOverlap('o', '中'); v > 0.9 {
		t.Errorf("latin vs CJK hash glyph overlap = %v, too high", v)
	}
}

func TestInkOverlapSymmetric(t *testing.T) {
	runes := []rune{'a', 'e', 'o', 'á', 'ẹ', 'ö', '中', '5'}
	for _, x := range runes {
		for _, y := range runes {
			if InkOverlap(x, y) != InkOverlap(y, x) {
				t.Fatalf("InkOverlap not symmetric for %q,%q", x, y)
			}
		}
	}
}

func TestRendererCache(t *testing.T) {
	re := NewRenderer()
	a1 := re.Render("aaaa")
	a2 := re.Render("aaaa")
	if !sameImage(a1, a2) {
		t.Error("cached render differs")
	}
}

func TestMarksOf(t *testing.T) {
	marks, ok := MarksOf('á')
	if !ok || len(marks) != 1 || marks[0] != MarkAcute {
		t.Errorf("MarksOf('á') = %v,%v", marks, ok)
	}
	if marks, ok := MarksOf('а'); !ok || len(marks) != 0 {
		t.Errorf("MarksOf(Cyrillic а) = %v,%v, want empty identity", marks, ok)
	}
	if _, ok := MarksOf('a'); ok {
		t.Error("ASCII 'a' should not be in the composed table")
	}
}

func TestComposedEnumeration(t *testing.T) {
	runes := Composed()
	if len(runes) != len(composed) {
		t.Fatalf("Composed() returned %d runes, table has %d", len(runes), len(composed))
	}
	for _, r := range runes {
		if _, ok := composed[r]; !ok {
			t.Fatalf("Composed() returned %q not in table", r)
		}
	}
}

func BenchmarkRenderDomain(b *testing.B) {
	re := NewRenderer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = re.Render("fаcebook.com")
	}
}

func BenchmarkRasterizeUncached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = rasterize('ạ')
	}
}
