package core

import (
	"math"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/simchar"
	"idnlab/internal/simrand"
)

// The equivalence battery: index-backed DetectNormalized must return
// byte-identical verdicts to the retained SSIM brute sweep, across a
// randomized brand catalog and an adversarial label corpus that leans on
// every class the index distinguishes — identity twins, family
// diacritics, cross-base confusables, unfoldable hash glyphs, length ±1
// comparisons and multi-substitution composites. The sweep is the
// specification; any divergence is an index completeness bug.

// genBrandCorpus deterministically generates n ASCII LDH brand labels of
// varied lengths, with a few deliberate duplicates to exercise the
// first-at-max tie-break.
func genBrandCorpus(src *simrand.Source, n int) []brands.Brand {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	list := make([]brands.Brand, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && src.Bool(0.02) {
			// Duplicate an earlier label under a new ID.
			dup := list[src.Intn(len(list))]
			list = append(list, brands.Brand{Domain: dup.Domain, Rank: i + 1})
			continue
		}
		m := 3 + src.Intn(18)
		label := make([]byte, 0, m)
		for j := 0; j < m; j++ {
			switch {
			case j > 0 && j < m-1 && src.Bool(0.03):
				label = append(label, '-')
			case src.Bool(0.06):
				label = append(label, byte('0'+src.Intn(10)))
			default:
				label = append(label, letters[src.Intn(26)])
			}
		}
		list = append(list, brands.Brand{Domain: string(label) + ".com", Rank: i + 1})
	}
	return list
}

// mutateLabel derives one adversarial probe label from a brand label.
func mutateLabel(src *simrand.Source, tab *simchar.Table, label string) string {
	runes := []rune(label)
	if len(runes) == 0 {
		return label
	}
	// Structural edit first (sometimes): grow or shrink by one rune so
	// the truncation and padded comparison classes stay hot.
	switch src.Intn(6) {
	case 0:
		runes = append(runes, substitutionFor(src, tab, 'o'))
	case 1:
		if len(runes) > 2 {
			runes = runes[:len(runes)-1]
		}
	case 2:
		if len(runes) > 2 {
			pos := src.Intn(len(runes))
			runes = append(runes[:pos], runes[pos+1:]...)
		}
	}
	// One to three substitutions.
	subs := 1 + src.Intn(3)
	for s := 0; s < subs && len(runes) > 0; s++ {
		pos := src.Intn(len(runes))
		base := runes[pos]
		if base > 0x7F {
			continue
		}
		runes[pos] = substitutionFor(src, tab, base)
	}
	return string(runes)
}

// substitutionFor picks a substitute for an ASCII base across the index's
// confusability classes.
func substitutionFor(src *simrand.Source, tab *simchar.Table, base rune) rune {
	b := byte(base)
	switch src.Intn(10) {
	case 0, 1, 2: // family member of the same base (identity or diacritic)
		if sims := tab.Similar(b); len(sims) > 0 {
			return sims[src.Intn(min(len(sims), 12))].Rune
		}
	case 3, 4: // deep family tail (low-similarity variant of same base)
		if sims := tab.Similar(b); len(sims) > 0 {
			return sims[src.Intn(len(sims))].Rune
		}
	case 5, 6: // cross-base confusable: folds to a different base
		other := byte(simchar.Bases[src.Intn(len(simchar.Bases))])
		if sims := tab.Similar(other); len(sims) > 0 {
			return sims[src.Intn(min(len(sims), 8))].Rune
		}
	case 7: // unfoldable hash glyph
		return rune(0x4E00 + src.Intn(0x2000))
	case 8: // plain ASCII swap
		return rune('a' + src.Intn(26))
	}
	return base
}

// sweepFullEvery samples the labels TestIndexEquivalence also runs
// through the full-Score sweep (sweepFull).
const sweepFullEvery = 20

func TestIndexEquivalence(t *testing.T) {
	src := simrand.New(0x1D9A_7C3E)
	list := genBrandCorpus(src.Fork("brands"), equivBrandCount)

	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewHomographDetector(0, WithBrands(list))
	idx := NewHomographDetector(0, WithIndex(ix))

	lsrc := src.Fork("labels")
	tab := simchar.Default()
	checked, matched, full := 0, 0, 0
	for i := 0; i < equivLabelCount; i++ {
		brand := list[lsrc.Intn(len(list))]
		label := mutateLabel(lsrc, tab, brand.Label())
		domain := label + ".com"
		n, err := Normalize(domain)
		if err != nil {
			continue
		}
		wantM, wantOK := ref.DetectNormalized(n)
		gotM, gotOK := idx.DetectNormalized(n)
		if wantOK != gotOK {
			t.Fatalf("label %q (%s): sweep ok=%v, index ok=%v (sweep match %+v)",
				label, n.ACE, wantOK, gotOK, wantM)
		}
		if wantOK && !sameMatch(wantM, gotM) {
			t.Fatalf("label %q: verdicts differ\nsweep: %+v (ssim bits %x)\nindex: %+v (ssim bits %x)",
				label, wantM, math.Float64bits(wantM.SSIM), gotM, math.Float64bits(gotM.SSIM))
		}
		if i%sweepFullEvery == 0 {
			fullM, fullOK := ref.sweepFull(n)
			if fullOK != wantOK || (wantOK && !sameMatch(fullM, wantM)) {
				t.Fatalf("label %q: full-Score sweep (%+v, %v) != bounded sweep (%+v, %v)",
					label, fullM, fullOK, wantM, wantOK)
			}
			full++
		}
		checked++
		if wantOK {
			matched++
		}
	}
	if checked < equivLabelCount/2 {
		t.Fatalf("only %d/%d labels survived normalization; generator broken", checked, equivLabelCount)
	}
	if matched == 0 {
		t.Fatal("no label matched any brand; corpus exercises nothing")
	}
	t.Logf("equivalence held on %d labels (%d matches, %d against the full-Score sweep) over %d brands",
		checked, matched, full, len(list))
}

// sameMatch compares verdicts bit-exactly, including the SSIM float.
func sameMatch(a, b HomographMatch) bool {
	return a.Domain == b.Domain && a.Unicode == b.Unicode &&
		a.Brand == b.Brand && math.Float64bits(a.SSIM) == math.Float64bits(b.SSIM)
}

// TestIndexEquivalenceRegistryBrands runs the same comparison over the
// repo's own synthetic brand registry — the catalog serve actually loads
// — with near-miss probes derived from real homoglyph lists.
func TestIndexEquivalenceRegistryBrands(t *testing.T) {
	list := brands.TopK(500)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewHomographDetector(0, WithBrands(list))
	idx := NewHomographDetector(0, WithIndex(ix))

	src := simrand.New(0xBEEF)
	tab := simchar.Default()
	for i := 0; i < 400; i++ {
		brand := list[src.Intn(len(list))]
		label := mutateLabel(src, tab, brand.Label())
		n, err := Normalize(label + ".net")
		if err != nil {
			continue
		}
		wantM, wantOK := ref.DetectNormalized(n)
		gotM, gotOK := idx.DetectNormalized(n)
		if wantOK != gotOK || (wantOK && !sameMatch(wantM, gotM)) {
			t.Fatalf("label %q: sweep (%+v, %v) != index (%+v, %v)",
				label, wantM, wantOK, gotM, gotOK)
		}
	}
}

// TestIndexedDetectorMatchesOnCanaries pins the serve warmup canaries
// through the indexed path.
func TestIndexedDetectorMatchesOnCanaries(t *testing.T) {
	list := brands.TopK(1000)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewHomographDetector(0, WithBrands(list))
	idx := NewHomographDetector(0, WithIndex(ix))
	for _, domain := range []string{"xn--pple-43d.com", "apple邮箱.com", "example.com"} {
		n, err := Normalize(domain)
		if err != nil {
			t.Fatalf("%s: %v", domain, err)
		}
		wantM, wantOK := ref.DetectNormalized(n)
		gotM, gotOK := idx.DetectNormalized(n)
		if wantOK != gotOK || (wantOK && !sameMatch(wantM, gotM)) {
			t.Fatalf("%s: sweep (%+v, %v) != index (%+v, %v)", domain, wantM, wantOK, gotM, gotOK)
		}
	}
}

// Guard against accidentally shrinking the plain-run battery: the
// acceptance criterion is 10k brands without the race detector.
func TestEquivScale(t *testing.T) {
	if raceEnabled {
		t.Skip("race build runs the reduced battery")
	}
	if equivBrandCount < 10000 {
		t.Fatalf("equivBrandCount = %d, want >= 10000", equivBrandCount)
	}
}
