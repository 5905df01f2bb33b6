// Package confusables builds and queries a homoglyph table: for each ASCII
// domain character, the set of Unicode code points that render visually
// similar to it.
//
// The paper's availability study (§VI-D) used UC-SimList, "composed based
// on pixel overlap between bitmaps of characters". This package applies the
// same construction to our own typeface (package glyph): every code point
// in the supported repertoire is rasterized and its ink overlap with each
// ASCII base glyph is measured; pairs above a threshold become confusables.
// The result is therefore a UC-SimList derived from first principles rather
// than a copied artifact.
package confusables

import (
	"sort"
	"strings"
	"sync"

	"idnlab/internal/glyph"
)

// DefaultOverlapThreshold is the minimum ink-overlap ratio for two glyphs
// to be considered confusable. Identity renderings score 1.0; a single
// two-pixel diacritic on a typical glyph scores ≈0.85-0.95; unrelated
// letters score below 0.7.
const DefaultOverlapThreshold = 0.72

// Table maps each ASCII base character to its confusable code points.
type Table struct {
	byBase map[rune][]rune
	toBase map[rune]rune
}

// Build constructs a confusable table from the glyph repertoire with the
// given overlap threshold. Only non-ASCII code points whose skeleton (per
// the composition table) matches the base are admitted as homoglyphs —
// the same "same-letter family" structure UC-SimList has — plus any
// non-ASCII code point whose measured overlap with an unrelated base glyph
// still exceeds the threshold (cross-letter confusables such as ı vs l).
func Build(threshold float64) *Table {
	t := &Table{
		byBase: make(map[rune][]rune),
		toBase: make(map[rune]rune),
	}
	bases := []rune("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, cand := range glyph.Composed() {
		if cand < 0x80 {
			continue
		}
		bestBase := rune(0)
		bestOverlap := 0.0
		for _, base := range bases {
			ov := glyph.InkOverlap(base, cand)
			if ov > bestOverlap {
				bestOverlap, bestBase = ov, base
			}
		}
		if bestOverlap >= threshold {
			t.byBase[bestBase] = append(t.byBase[bestBase], cand)
			t.toBase[cand] = bestBase
		}
	}
	for _, hs := range t.byBase {
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	}
	return t
}

// BuildMulti constructs a *loose* table in which a code point is attached
// to every ASCII base whose ink overlap meets the threshold, not just its
// best match. This reproduces the breadth of UC-SimList: the paper
// generated 128,432 single-substitution candidates of which only 42,671
// (≈33%) survived the SSIM filter — i.e. the source list deliberately
// included weak lookalikes. Use Build/Default for detection folding and
// BuildMulti for candidate generation (§VI-D).
func BuildMulti(threshold float64) *Table {
	t := &Table{
		byBase: make(map[rune][]rune),
		toBase: make(map[rune]rune),
	}
	bases := []rune("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, cand := range glyph.Composed() {
		if cand < 0x80 {
			continue
		}
		bestBase, bestOverlap := rune(0), 0.0
		for _, base := range bases {
			ov := glyph.InkOverlap(base, cand)
			if ov >= threshold {
				t.byBase[base] = append(t.byBase[base], cand)
			}
			if ov > bestOverlap {
				bestOverlap, bestBase = ov, base
			}
		}
		if bestOverlap >= threshold {
			t.toBase[cand] = bestBase
		}
	}
	for _, hs := range t.byBase {
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	}
	return t
}

var (
	defaultOnce  sync.Once
	defaultTable *Table
)

// Default returns the package-wide table built at DefaultOverlapThreshold.
// The table is immutable after construction and safe for concurrent use.
func Default() *Table {
	defaultOnce.Do(func() { defaultTable = Build(DefaultOverlapThreshold) })
	return defaultTable
}

// Homoglyphs returns the confusable code points for an ASCII base
// character, best-overlap first order not guaranteed (sorted by code
// point). The returned slice must not be modified.
func (t *Table) Homoglyphs(base rune) []rune {
	if base >= 'A' && base <= 'Z' {
		base += 'a' - 'A'
	}
	return t.byBase[base]
}

// BaseOf returns the ASCII character that code point r is confusable with,
// and whether r is in the table. ASCII letters and digits map to
// themselves.
func (t *Table) BaseOf(r rune) (rune, bool) {
	if r < 0x80 {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '-' || r == '.' {
			return r, true
		}
		return 0, false
	}
	base, ok := t.toBase[r]
	return base, ok
}

// Skeleton folds every confusable code point of s to its ASCII base,
// leaving unmappable code points in place. Skeleton(Skeleton(x)) ==
// Skeleton(x). The fold is the cheap prefilter the detector uses before
// the expensive SSIM comparison.
func (t *Table) Skeleton(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if base, ok := t.BaseOf(r); ok {
			b.WriteRune(base)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Variants generates the single-substitution homographic candidates of an
// ASCII domain label: for each character position and each homoglyph of
// that character, one candidate with that position replaced. This is
// exactly the paper's candidate generation — "to reduce the computation
// overhead, only one character was replaced at a time" (§VI-D).
func (t *Table) Variants(label string) []string {
	runes := []rune(label)
	var out []string
	for i, r := range runes {
		for _, h := range t.Homoglyphs(r) {
			cand := make([]rune, len(runes))
			copy(cand, runes)
			cand[i] = h
			out = append(out, string(cand))
		}
	}
	return out
}

// VariantsMulti generates homographic candidates with up to maxSubs
// character substitutions, capped at limit results (0 = no cap). The
// paper's availability study replaced one character at a time "to reduce
// the computation overhead" and notes its 42,671 count "is just the
// lower-bound"; this enumerator quantifies how fast the space grows with
// additional substitutions.
func (t *Table) VariantsMulti(label string, maxSubs, limit int) []string {
	if maxSubs < 1 {
		return nil
	}
	runes := []rune(label)
	var out []string
	seen := make(map[string]struct{})
	var walk func(pos, subs int, current []rune)
	walk = func(pos, subs int, current []rune) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if pos == len(runes) {
			if subs > 0 {
				cand := string(current)
				if _, dup := seen[cand]; !dup {
					seen[cand] = struct{}{}
					out = append(out, cand)
				}
			}
			return
		}
		// Keep the original character.
		current[pos] = runes[pos]
		walk(pos+1, subs, current)
		if subs >= maxSubs {
			return
		}
		for _, h := range t.Homoglyphs(runes[pos]) {
			if limit > 0 && len(out) >= limit {
				return
			}
			current[pos] = h
			walk(pos+1, subs+1, current)
		}
		current[pos] = runes[pos]
	}
	walk(0, 0, make([]rune, len(runes)))
	return out
}

// VariantCountMulti returns the exact size of the maxSubs-substitution
// candidate space without materializing it.
func (t *Table) VariantCountMulti(label string, maxSubs int) int {
	// Dynamic program over positions: ways[s] = number of prefixes with s
	// substitutions.
	runes := []rune(label)
	ways := make([]int, maxSubs+1)
	ways[0] = 1
	for _, r := range runes {
		h := len(t.Homoglyphs(r))
		next := make([]int, maxSubs+1)
		for s := 0; s <= maxSubs; s++ {
			if ways[s] == 0 {
				continue
			}
			next[s] += ways[s] // keep original
			if s < maxSubs {
				next[s+1] += ways[s] * h
			}
		}
		ways = next
	}
	total := 0
	for s := 1; s <= maxSubs; s++ {
		total += ways[s]
	}
	return total
}
