package uniscript

import (
	"testing"
	"testing/quick"
	"unicode"
)

func TestOfKnownCodePoints(t *testing.T) {
	cases := []struct {
		r    rune
		want Script
	}{
		{'a', Latin},
		{'Z', Latin},
		{'0', Common},
		{'-', Common},
		{'.', Common},
		{'é', Latin},
		{'ß', Latin},
		{'а', Cyrillic}, // U+0430 — the apple.com attack character
		{'о', Cyrillic}, // U+043E
		{'ѕ', Cyrillic}, // U+0455 — the soso.com attack character
		{'α', Greek},
		{'ω', Greek},
		{'中', Han},
		{'国', Han},
		{'波', Han},
		{'の', Hiragana},
		{'ア', Katakana},
		{'한', Hangul},
		{'ไ', Thai},
		{'م', Arabic},
		{'ש', Hebrew},
		{'д', Cyrillic},
		{'ạ', Latin},     // U+1EA1 Vietnamese
		{'́', Inherited}, // combining acute
		{'ひ', Hiragana},
		{'ㄅ', Bopomofo},
		{'ᠮ', Mongolian},
	}
	for _, tc := range cases {
		if got := Of(tc.r); got != tc.want {
			t.Errorf("Of(%q U+%04X) = %v, want %v", tc.r, tc.r, got, tc.want)
		}
	}
}

func TestOfASCIIPunctuationIsCommon(t *testing.T) {
	for _, r := range []rune{' ', '!', '/', ':', '@', '~', '_'} {
		if got := Of(r); got != Common {
			t.Errorf("Of(%q) = %v, want Common", r, got)
		}
	}
}

func TestOfUnknown(t *testing.T) {
	// Deseret block is deliberately not in the table.
	if got := Of(0x10400); got != Unknown {
		t.Errorf("Of(U+10400) = %v, want Unknown", got)
	}
}

func TestOfAgreesWithStdlibOnCore(t *testing.T) {
	// Spot-check our table against the stdlib unicode ranges for the
	// scripts we share, over the BMP.
	checks := []struct {
		table *unicode.RangeTable
		want  Script
	}{
		{unicode.Hiragana, Hiragana},
		{unicode.Katakana, Katakana},
		{unicode.Thai, Thai},
		{unicode.Hangul, Hangul},
		{unicode.Greek, Greek},
		{unicode.Cyrillic, Cyrillic},
	}
	for r := rune(0x80); r <= 0xFFFF; r++ {
		got := Of(r)
		for _, c := range checks {
			if unicode.Is(c.table, r) && got != c.want && got != Unknown && got != Inherited {
				t.Fatalf("U+%04X: Of=%v but stdlib says %v", r, got, c.want)
			}
		}
	}
}

func TestSetOperations(t *testing.T) {
	var s Set
	if s.Len() != 0 {
		t.Fatal("empty set has non-zero length")
	}
	s.Add(Latin)
	s.Add(Cyrillic)
	s.Add(Latin) // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Has(Latin) || !s.Has(Cyrillic) || s.Has(Han) {
		t.Fatal("membership wrong")
	}
	scripts := s.Scripts()
	if len(scripts) != 2 || scripts[0] != Latin || scripts[1] != Cyrillic {
		t.Fatalf("Scripts() = %v", scripts)
	}
}

func TestAnalyzeASCII(t *testing.T) {
	a := Analyze("example-123.com")
	if !a.ASCIIOnly {
		t.Error("ASCIIOnly should be true")
	}
	if !a.SingleScript() {
		t.Error("pure ASCII should be single-script")
	}
	if a.Dominant() != Latin {
		t.Errorf("Dominant = %v, want Latin", a.Dominant())
	}
}

func TestAnalyzeHomographMixed(t *testing.T) {
	// "аpple": Cyrillic а + Latin pple — the canonical 2017 attack.
	a := Analyze("аpple")
	if a.Concrete.Len() < 2 {
		t.Error("Cyrillic+Latin should be mixed")
	}
	if a.SingleScript() {
		t.Error("mixed label must not be single-script")
	}
}

func TestAnalyzeWholeScriptConfusable(t *testing.T) {
	// "ѕоѕо" — all Cyrillic, mimicking soso. Passes the single-script
	// policy, which is exactly the Firefox bypass in Table XI.
	a := Analyze("ѕоѕо")
	if !a.SingleScript() {
		t.Error("all-Cyrillic label should be single-script")
	}
	if a.Dominant() != Cyrillic {
		t.Errorf("Dominant = %v", a.Dominant())
	}
}

func TestAnalyzeCombiningMarks(t *testing.T) {
	a := Analyze("façebook") // c + combining cedilla
	if !a.HasInherited {
		t.Error("should detect combining mark")
	}
	if !a.SingleScript() {
		t.Error("Latin + Inherited should stay single-script")
	}
}

func TestAnalyzeChineseKeywordPlusBrand(t *testing.T) {
	// Type-1 semantic attack shape: "apple邮箱".
	a := Analyze("apple邮箱")
	if a.Concrete.Len() < 2 {
		t.Error("Latin+Han should be mixed")
	}
	if a.ASCIIOnly {
		t.Error("not ASCII-only")
	}
}

func TestAnalyzeDigitsOnly(t *testing.T) {
	a := Analyze("58")
	if a.Concrete.Len() != 0 || !a.HasCommon {
		t.Error("digits should be Common only")
	}
	if !a.SingleScript() {
		t.Error("Common-only label counts as single script")
	}
	if a.Dominant() != Unknown {
		t.Errorf("Dominant of script-free label = %v, want Unknown", a.Dominant())
	}
}

func TestAnalyzeUnknownBreaksSingleScript(t *testing.T) {
	a := Analyze("ab\U00010400") // Deseret
	if !a.HasUnknown {
		t.Error("should flag Unknown")
	}
	if a.SingleScript() {
		t.Error("Unknown code points must break single-script status")
	}
}

func TestScriptString(t *testing.T) {
	if Latin.String() != "Latin" || Han.String() != "Han" {
		t.Error("String() wrong")
	}
	if Script(99).String() != "Unknown" {
		t.Error("out-of-range script should stringify as Unknown")
	}
}

func TestOfTotalProperty(t *testing.T) {
	// Of must be total and deterministic over arbitrary runes.
	if err := quick.Check(func(v uint32) bool {
		r := rune(v % 0x110000)
		return Of(r) == Of(r)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangesSorted(t *testing.T) {
	for i := 1; i < len(ranges); i++ {
		if ranges[i].lo <= ranges[i-1].hi {
			t.Fatalf("ranges overlap or unsorted at %d", i)
		}
	}
}

func BenchmarkOf(b *testing.B) {
	runes := []rune("аррӏе中国example한국어ไทย")
	for i := 0; i < b.N; i++ {
		_ = Of(runes[i%len(runes)])
	}
}

func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Analyze("fаcebook-секретныйdomain中文")
	}
}
