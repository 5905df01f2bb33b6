package langid

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"idnlab/internal/uniscript"
)

// TestClassifyZeroAlloc is the steady-state allocation gate for the
// corpus-wide language breakdown: Classify must not allocate for ASCII
// labels (Bayes stage), Latin labels with diacritics (Bayes stage plus
// hint boosts), or script-decisive non-Latin labels (structural stage).
func TestClassifyZeroAlloc(t *testing.T) {
	c := New()
	cases := map[string]string{
		"ascii":            "example-shop24",
		"latin-diacritics": "bücher-münchen",
		"nonlatin":         "北京大学",
		"cyrillic":         "почта-россии",
		"mixed":            "shop-中国-24",
		"empty":            "",
	}
	for name, label := range cases {
		label := label
		if allocs := testing.AllocsPerRun(200, func() {
			_ = c.Classify(label)
		}); allocs != 0 {
			t.Errorf("%s: Classify(%q) allocates %.1f/op, want 0", name, label, allocs)
		}
	}
}

// denseAlphabets mix the scripts and boundary characters the corpus
// contains; the property test draws labels from them.
var denseAlphabets = []string{
	"abcdefghijklmnopqrstuvwxyz",
	"abc-123.xyz",
	"üäößñçéèışğåøæőűđ",
	"бвгдежзик",
	"中国北京大学",
	"ひらがなカタカナ",
	"한국어쇼핑",
	"αβγδε",
	"مرحبا",
	"ABCDEFÜÄÖ", // exercises the lowering path
	"^$",        // the boundary markers themselves, as adversarial input
}

// TestClassifyDenseMatchesReference pins the dense interned-feature scorer
// to the retained map-based reference over randomized labels: for every
// label that reaches the Bayes stage, classifyLatin (dense) must agree
// with classifyLatinRef (maps), and the public Classify must equal the
// reference pipeline end to end.
func TestClassifyDenseMatchesReference(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20000; i++ {
		alpha := []rune(denseAlphabets[rng.Intn(len(denseAlphabets))])
		n := rng.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteRune(alpha[rng.Intn(len(alpha))])
		}
		label := sb.String()

		wantLang, decided := classifyByScript(label)
		if !decided {
			wantLang = c.classifyLatinRef(label)
			if gotLatin := c.classifyLatin(label); gotLatin != wantLang {
				t.Fatalf("classifyLatin(%q) = %v, reference = %v", label, gotLatin, wantLang)
			}
		}
		if got := c.Classify(label); got != wantLang {
			t.Fatalf("Classify(%q) = %v, reference pipeline = %v", label, got, wantLang)
		}
	}
}

// TestDefaultShared verifies the process-wide classifier is trained once
// and classifies identically to a fresh instance.
func TestDefaultShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned distinct instances")
	}
	fresh := New()
	for _, label := range []string{"bücher", "münchen", "中国", "почта", "shop24", ""} {
		if got, want := Default().Classify(label), fresh.Classify(label); got != want {
			t.Errorf("Default().Classify(%q) = %v, fresh = %v", label, got, want)
		}
	}
}

// classifyLatinRef is the retained map-based reference scorer: tokenize on
// non-Latin runes, score every token's bigrams against each language's
// probability map, add diacritic hint boosts, pick the best score with
// ties broken in Language declaration order. The dense fast path is pinned
// to this implementation by TestClassifyDenseMatchesReference.
func (c *Classifier) classifyLatinRef(label string) Language {
	label = strings.ToLower(label)
	// Tokenize on non-letters so "shop-münchen24" scores its words.
	tokens := strings.FieldsFunc(label, func(r rune) bool {
		return uniscript.Of(r) != uniscript.Latin
	})
	if len(tokens) == 0 {
		return Other
	}
	best := Other
	bestScore := math.Inf(-1)
	for _, lang := range All() {
		probs, ok := c.logProb[lang]
		if !ok {
			continue
		}
		score := 0.0
		for _, tok := range tokens {
			for _, bg := range bigrams(tok) {
				if p, seen := probs[bg]; seen {
					score += p
				} else {
					score += c.logUnseen[lang]
				}
			}
		}
		for _, r := range label {
			for _, hinted := range diacriticHints[r] {
				if hinted == lang {
					score += hintBoost
				}
			}
		}
		if score > bestScore {
			best, bestScore = lang, score
		}
	}
	return best
}
