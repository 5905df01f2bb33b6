package langid

import "testing"

// classifyBenchCases cover the three hot shapes of the corpus-wide
// language breakdown: plain-ASCII labels (the Bayes stage over English
// bigrams), Latin labels with diacritics (Bayes stage plus hint boosts),
// and script-decisive non-Latin labels (the structural stage).
var classifyBenchCases = []struct {
	name  string
	label string
}{
	{"ascii", "example-shop24"},
	{"latin-diacritics", "bücher-münchen"},
	{"nonlatin", "北京大学"},
	{"cyrillic", "почта-россии"},
}

// BenchmarkLangIDClassify times one Classify call per label shape. The
// acceptance gate for the corpus-index PR is 0 allocs/op on every case.
func BenchmarkLangIDClassify(b *testing.B) {
	c := New()
	for _, tc := range classifyBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.Classify(tc.label)
			}
		})
	}
}
