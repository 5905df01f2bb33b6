package langid

import (
	"testing"
)

func TestScriptDecisiveLanguages(t *testing.T) {
	c := New()
	cases := []struct {
		label string
		want  Language
	}{
		{"中国", Chinese},
		{"波色", Chinese},
		{"北京交通大学", Chinese},
		{"日本語ドメイン", Japanese}, // kana present
		{"ひらがな", Japanese},
		{"なぜ日本語", Japanese}, // kanji + kana
		{"한국어", Korean},
		{"도메인", Korean},
		{"ไทย", Thai},
		{"почта", Russian},
		{"пример", Russian},
		{"مرحبا", Arabic},
		{"سلام", Arabic}, // pure Arabic-script, no Persian-only chars
		{"گفتگو", Persian},
		{"پارسی", Persian},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.label); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.label, got, tc.want)
		}
	}
}

func TestLatinLanguages(t *testing.T) {
	c := New()
	cases := []struct {
		label string
		want  Language
	}{
		{"bücher", German},
		{"größe", German},
		{"fußball", German},
		{"münchen", German},
		{"alışveriş", Turkish},
		{"türkçe", Turkish},
		{"öğrenci", Turkish},
		{"försäljning", Swedish},
		{"människor", Swedish},
		{"señor", Spanish},
		{"educación", Spanish},
		{"château", French},
		{"société", French},
		{"yliopisto", Finnish},
		{"musiikki", Finnish},
		{"egészség", Hungarian},
		{"gyönyörű", Hungarian},
		{"købenavn", Danish},
		{"størrelse", Danish},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.label); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.label, got, tc.want)
		}
	}
}

func TestEnglishDefault(t *testing.T) {
	c := New()
	for _, label := range []string{"online-shop", "bestnews", "cloudservice"} {
		got := c.Classify(label)
		if got != English {
			t.Errorf("Classify(%q) = %v, want English", label, got)
		}
	}
}

func TestMixedBrandKeyword(t *testing.T) {
	// Type-1 semantic IDNs mix an ASCII brand with CJK keywords; the
	// CJK content decides the language, matching the paper's observation
	// that such IDNs are overwhelmingly Chinese.
	c := New()
	if got := c.Classify("apple邮箱"); got != Chinese {
		t.Errorf("Classify(apple邮箱) = %v, want Chinese", got)
	}
	if got := c.Classify("58汽车"); got != Chinese {
		t.Errorf("Classify(58汽车) = %v, want Chinese", got)
	}
}

func TestClassifyDeterministic(t *testing.T) {
	c := New()
	labels := []string{"bücher", "中国", "почта", "online", "gyönyörű"}
	for _, l := range labels {
		first := c.Classify(l)
		for i := 0; i < 5; i++ {
			if got := c.Classify(l); got != first {
				t.Fatalf("Classify(%q) not deterministic: %v vs %v", l, got, first)
			}
		}
	}
}

func TestTwoClassifiersAgree(t *testing.T) {
	a, b := New(), New()
	for _, l := range []string{"bücher", "señor", "alışveriş", "hello"} {
		if a.Classify(l) != b.Classify(l) {
			t.Fatalf("classifiers disagree on %q", l)
		}
	}
}

func TestDigitsAndEmpty(t *testing.T) {
	c := New()
	if got := c.Classify("58"); got != Other {
		t.Errorf("Classify(58) = %v, want Other", got)
	}
	if got := c.Classify(""); got != Other {
		t.Errorf("Classify(\"\") = %v, want Other", got)
	}
	if got := c.Classify("---"); got != Other {
		t.Errorf("Classify(---) = %v, want Other", got)
	}
}

func TestLanguageString(t *testing.T) {
	if Chinese.String() != "Chinese" || Persian.String() != "Persian" {
		t.Error("String() wrong")
	}
	if Language(-1).String() != "Other" || Language(99).String() != "Other" {
		t.Error("out-of-range String() should be Other")
	}
}

func TestEastAsianLanguages(t *testing.T) {
	for _, l := range []Language{Chinese, Japanese, Korean, Thai} {
		if !l.EastAsian() {
			t.Errorf("%v should be east-Asian", l)
		}
	}
	for _, l := range []Language{German, Russian, Arabic, English, Other} {
		if l.EastAsian() {
			t.Errorf("%v should not be east-Asian", l)
		}
	}
}

func TestAllCoversEveryLanguage(t *testing.T) {
	all := All()
	if len(all) != numLanguages {
		t.Fatalf("All() returned %d, want %d", len(all), numLanguages)
	}
	seen := make(map[Language]bool)
	for _, l := range all {
		seen[l] = true
	}
	if !seen[Chinese] || !seen[Persian] || !seen[Other] {
		t.Error("All() missing languages")
	}
}

func TestCorpusAccuracy(t *testing.T) {
	// The classifier must recover the language of most of its own training
	// vocabulary words ≥4 runes (short function words are legitimately
	// ambiguous). LangID reports 0.904-0.992 accuracy; we demand ≥0.80 on
	// this harder per-word task.
	c := New()
	correct, total := 0, 0
	for lang, words := range latinCorpora {
		for _, w := range words {
			if len([]rune(w)) < 4 {
				continue
			}
			total++
			if c.Classify(w) == lang {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Errorf("training-vocabulary accuracy = %.3f, want >= 0.80", acc)
	}
}

func BenchmarkClassifyCJK(b *testing.B) {
	c := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Classify("北京交通大学")
	}
}

func BenchmarkClassifyLatin(b *testing.B) {
	c := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Classify("försäljning")
	}
}

func BenchmarkNewClassifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New()
	}
}

func TestExtendedLanguages(t *testing.T) {
	c := New()
	cases := []struct {
		label string
		want  Language
	}{
		{"tiếngviệt", Vietnamese},
		{"sứckhỏe", Vietnamese},
		{"ελλάδα", Greek},
		{"ελληνικά", Greek},
		{"שלום", Hebrew},
		{"ישראל", Hebrew},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.label); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.label, got, tc.want)
		}
	}
}

func TestHomographLabelsClassifyAsVietnamese(t *testing.T) {
	// The 2017-era facebook homographs used Vietnamese dot-below marks
	// (Table VIII: fạcẹbook etc.); the classifier should attribute them
	// to Vietnamese rather than English.
	c := New()
	if got := c.Classify("fạcẹbook"); got != Vietnamese {
		t.Errorf("Classify(fạcẹbook) = %v, want Vietnamese", got)
	}
}
