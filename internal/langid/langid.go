// Package langid identifies the most likely language of a domain label.
//
// The paper (§IV-A) used LangID, "a multinomial Bayes learner trained by
// five language-labeled datasets", to assign one of the Table II languages
// to each of 1.4M IDNs. This package reproduces the approach with the same
// model family: a structural stage resolves script-decisive languages
// (Han → Chinese, kana → Japanese, Hangul → Korean, Thai, Cyrillic →
// Russian, Arabic script → Arabic/Persian), and a multinomial naive-Bayes
// classifier over character bigrams, trained on embedded seed corpora,
// separates the Latin-script languages (German, Turkish, Swedish, Spanish,
// French, Finnish, Hungarian, Danish, English).
//
// Classify is the corpus-wide hot loop of the offline study (one call per
// IDN in the Table II breakdown), so the Bayes stage runs on a dense
// representation built once at training time: every bigram observed in
// any corpus is interned to a dense feature ID, and the per-language
// log-probabilities are flattened into one contiguous row per ID. A
// steady-state Classify walks the label once, does one map probe per
// bigram and adds one cached row of floats — no tokenization slices, no
// per-call maps, zero allocations. The map-based model (logProb /
// logUnseen) is retained as the reference implementation; the equivalence
// is pinned by a property test.
package langid

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"

	"idnlab/internal/uniscript"
)

// bigram is a pair of adjacent runes, the naive-Bayes feature unit.
type bigram [2]rune

// Classifier assigns languages to labels. It is immutable after New and
// safe for concurrent use.
type Classifier struct {
	// Reference model (retained for the equivalence property test and as
	// the readable specification of the scoring rule):
	// logProb[lang][bigram] is log P(bigram | lang) with Laplace smoothing.
	logProb map[Language]map[bigram]float64
	// logUnseen[lang] is the smoothed log-probability of an unseen bigram.
	logUnseen map[Language]float64
	// latinLangs is the candidate set for the Bayes stage, in Language
	// declaration order (the tie-break order of Classify).
	latinLangs []Language

	// Dense fast path, derived from the reference model at New() time:
	// bigramID interns every bigram observed in any training corpus.
	bigramID map[bigram]int32
	// dense holds one contiguous row of len(latinLangs) log-probs per
	// interned bigram: dense[id*len(latinLangs)+i] is the score
	// contribution of feature id for latinLangs[i] (the language's
	// smoothed probability if it saw the bigram in training, its unseen
	// floor otherwise).
	dense []float64
	// unseen is the row added for bigrams outside the intern table.
	unseen []float64
	// hintLangIdx maps characteristic diacritics to dense language
	// indices (diacriticHints resolved against latinLangs).
	hintLangIdx map[rune][]int32
}

// hintBoost is the additive log-probability bonus per characteristic
// diacritic occurrence.
const hintBoost = 4.0

// New trains a Classifier from the embedded corpora.
func New() *Classifier {
	c := &Classifier{
		logProb:   make(map[Language]map[bigram]float64, len(latinCorpora)),
		logUnseen: make(map[Language]float64, len(latinCorpora)),
	}
	for lang, words := range latinCorpora {
		counts := make(map[bigram]int)
		total := 0
		for _, w := range words {
			for _, bg := range bigrams(w) {
				counts[bg]++
				total++
			}
		}
		vocab := len(counts) + 1
		probs := make(map[bigram]float64, len(counts))
		den := math.Log(float64(total + vocab))
		for bg, n := range counts {
			probs[bg] = math.Log(float64(n+1)) - den
		}
		c.logProb[lang] = probs
		c.logUnseen[lang] = math.Log(1) - den
		c.latinLangs = append(c.latinLangs, lang)
	}
	// Declaration order = the tie-break order of the reference scorer,
	// which iterated All() and skipped languages without corpora.
	sort.Slice(c.latinLangs, func(i, j int) bool { return c.latinLangs[i] < c.latinLangs[j] })
	c.buildDense()
	return c
}

// buildDense flattens the trained map model into the interned-feature
// representation the hot path scores against.
func (c *Classifier) buildDense() {
	n := len(c.latinLangs)
	c.bigramID = make(map[bigram]int32)
	for _, lang := range c.latinLangs {
		for bg := range c.logProb[lang] {
			if _, ok := c.bigramID[bg]; !ok {
				c.bigramID[bg] = int32(len(c.bigramID))
			}
		}
	}
	c.dense = make([]float64, len(c.bigramID)*n)
	c.unseen = make([]float64, n)
	for i, lang := range c.latinLangs {
		c.unseen[i] = c.logUnseen[lang]
	}
	for bg, id := range c.bigramID {
		row := c.dense[int(id)*n : int(id+1)*n]
		for i, lang := range c.latinLangs {
			if p, seen := c.logProb[lang][bg]; seen {
				row[i] = p
			} else {
				row[i] = c.logUnseen[lang]
			}
		}
	}
	c.hintLangIdx = make(map[rune][]int32, len(diacriticHints))
	for r, langs := range diacriticHints {
		var idx []int32
		for _, hinted := range langs {
			for i, lang := range c.latinLangs {
				if lang == hinted {
					idx = append(idx, int32(i))
				}
			}
		}
		if len(idx) > 0 {
			c.hintLangIdx[r] = idx
		}
	}
}

// Default returns the process-wide shared Classifier, trained once. The
// classifier is immutable and safe for concurrent use, so corpus scans,
// the serving layer and the study all share one trained model instead of
// re-training per construction.
func Default() *Classifier {
	defaultOnce.Do(func() { defaultClassifier = New() })
	return defaultClassifier
}

var (
	defaultOnce       sync.Once
	defaultClassifier *Classifier
)

// bigrams extracts the character bigrams of a word, with boundary markers
// so that characteristic prefixes/suffixes count as features.
func bigrams(w string) []bigram {
	runes := []rune("^" + strings.ToLower(w) + "$")
	if len(runes) < 2 {
		return nil
	}
	out := make([]bigram, 0, len(runes)-1)
	for i := 0; i+1 < len(runes); i++ {
		out = append(out, bigram{runes[i], runes[i+1]})
	}
	return out
}

// Classify returns the most likely language of a Unicode label (one domain
// label, already decoded from Punycode). Deterministic: equal inputs give
// equal outputs, and ties break by declaration order of Language. A
// steady-state call allocates nothing.
func (c *Classifier) Classify(label string) Language {
	if lang, decided := classifyByScript(label); decided {
		return lang
	}
	return c.classifyLatin(label)
}

// classifyByScript resolves languages that are determined by their script.
func classifyByScript(label string) (Language, bool) {
	var counts [numLanguages]int
	hasLatin := false
	hasHan := false
	hasKana := false
	totalConcrete := 0
	for _, r := range label {
		switch uniscript.Of(r) {
		case uniscript.Han:
			hasHan = true
			totalConcrete++
		case uniscript.Hiragana, uniscript.Katakana:
			hasKana = true
			totalConcrete++
		case uniscript.Hangul:
			counts[Korean]++
			totalConcrete++
		case uniscript.Thai:
			counts[Thai]++
			totalConcrete++
		case uniscript.Cyrillic:
			counts[Russian]++
			totalConcrete++
		case uniscript.Greek:
			counts[Greek]++
			totalConcrete++
		case uniscript.Hebrew:
			counts[Hebrew]++
			totalConcrete++
		case uniscript.Arabic:
			if persianOnly[r] {
				counts[Persian] += 3
			} else {
				counts[Arabic]++
			}
			totalConcrete++
		case uniscript.Latin:
			hasLatin = true
			totalConcrete++
		}
	}
	// Kana anywhere means Japanese, even mixed with Han (kanji).
	if hasKana {
		return Japanese, true
	}
	if hasHan {
		return Chinese, true
	}
	best, bestCount := Other, 0
	for lang, n := range counts {
		if n > bestCount {
			best, bestCount = Language(lang), n
		}
	}
	if bestCount == 0 {
		if hasLatin || totalConcrete == 0 {
			return Other, false // fall through to the Bayes stage
		}
		return Other, true
	}
	if best == Arabic && counts[Persian] > 0 {
		return Persian, true
	}
	return best, true
}

// classifyLatin is the dense-representation Bayes stage: one pass over
// the label, interned-feature lookups, no allocations. It computes
// exactly the score classifyLatinRef computes — same tokenization (maximal
// runs of Latin-script runes over the per-rune-lowered label, with ^/$
// boundary markers), same smoothing, same hint boosts, same tie-break.
func (c *Classifier) classifyLatin(label string) Language {
	n := len(c.latinLangs)
	var scores [numLanguages]float64
	sawToken := false
	inTok := false
	var prev rune
	for _, r0 := range label {
		r := unicode.ToLower(r0)
		if uniscript.Of(r) == uniscript.Latin {
			if !inTok {
				inTok = true
				sawToken = true
				prev = '^'
			}
			c.addBigram(&scores, prev, r)
			prev = r
		} else if inTok {
			c.addBigram(&scores, prev, '$')
			inTok = false
		}
		// Hint boosts accumulate over every rune of the lowered label,
		// inside or outside tokens, exactly as the reference does.
		for _, li := range c.hintLangIdx[r] {
			scores[li] += hintBoost
		}
	}
	if inTok {
		c.addBigram(&scores, prev, '$')
	}
	if !sawToken {
		return Other
	}
	best := Other
	bestScore := math.Inf(-1)
	for i := 0; i < n; i++ {
		if scores[i] > bestScore {
			best, bestScore = c.latinLangs[i], scores[i]
		}
	}
	return best
}

// addBigram adds one feature's per-language log-probability row to the
// running scores.
func (c *Classifier) addBigram(scores *[numLanguages]float64, a, b rune) {
	n := len(c.unseen)
	if id, ok := c.bigramID[bigram{a, b}]; ok {
		row := c.dense[int(id)*n : int(id)*n+n]
		for i := 0; i < n; i++ {
			scores[i] += row[i]
		}
		return
	}
	for i := 0; i < n; i++ {
		scores[i] += c.unseen[i]
	}
}
