package simchar

import (
	"testing"

	"idnlab/internal/glyph"
)

// TestFamilyFoldCoversComposed pins the FamilyThreshold choice: every
// composed diacritic variant in the glyph repertoire must fold to its
// composition base — the property the candidate expansion depends on.
func TestFamilyFoldCoversComposed(t *testing.T) {
	tab := Default()
	for _, r := range glyph.Composed() {
		if r < 0x80 {
			continue
		}
		marks, ok := glyph.MarksOf(r)
		if !ok || len(marks) == 0 {
			continue
		}
		b, folded := tab.Fold(r)
		if !folded {
			t.Errorf("composed rune %q (%U) does not fold", r, r)
			continue
		}
		_ = b
	}
}

// TestIdentityClassesAreExact checks that Identical implies bit-identical
// cell bitmaps, and that ASCII LDH characters are identical to themselves.
func TestIdentityClassesAreExact(t *testing.T) {
	tab := Default()
	re := glyph.NewRenderer()
	for _, r := range glyph.Composed() {
		if r < 0x80 {
			continue
		}
		if b, ok := tab.Identical(r); ok {
			if re.CellBits(r) != re.CellBits(rune(b)) {
				t.Errorf("%q (%U) marked identical to %q but bitmaps differ", r, r, b)
			}
		}
	}
	for i := 0; i < len(Bases); i++ {
		b, ok := tab.Identical(rune(Bases[i]))
		if !ok || b != Bases[i] {
			t.Errorf("base %q not identical to itself (got %q, %v)", Bases[i], b, ok)
		}
	}
}

// TestSkeletonIdempotent checks skeleton(skeleton(x)) == skeleton(x) on a
// mixed sample, and that skeletons of pure-ASCII LDH labels are the label.
func TestSkeletonIdempotent(t *testing.T) {
	tab := Default()
	samples := []string{
		"apple", "Exámple", "аpple", "xn--pple-43d", "pаypаl-ѕecure",
		"G00GLE", "mixed-日本語-label", "",
	}
	for _, s := range samples {
		sk := string(tab.AppendSkeleton(nil, s))
		if again := string(tab.AppendSkeleton(nil, sk)); again != sk {
			t.Errorf("skeleton not idempotent on %q: %q -> %q", s, sk, again)
		}
	}
	if got := string(tab.AppendSkeleton(nil, "plain-label9")); got != "plain-label9" {
		t.Errorf("ASCII LDH skeleton changed: %q", got)
	}
	if got := string(tab.AppendSkeleton(nil, "MiXeD")); got != "mixed" {
		t.Errorf("case fold missing: %q", got)
	}
}

// TestDeterministicDerivation pins that two independent derivations agree
// exactly — the property that makes index files reproducible.
func TestDeterministicDerivation(t *testing.T) {
	a, b := Derive(), Derive()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() == 0 {
		t.Fatal("zero fingerprint")
	}
	for i := 0; i < len(Bases); i++ {
		la, lb := a.Similar(Bases[i]), b.Similar(Bases[i])
		if len(la) != len(lb) {
			t.Fatalf("similar list length differs for %q", Bases[i])
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("similar list entry differs for %q at %d: %+v vs %+v", Bases[i], j, la[j], lb[j])
			}
		}
	}
}

// TestHomoglyphsOrdered checks every base's confusables come best-first.
func TestHomoglyphsOrdered(t *testing.T) {
	tab := Default()
	for i := 0; i < len(Bases); i++ {
		base := Bases[i]
		list := tab.Similar(base)
		for j := 1; j < len(list); j++ {
			if list[j].SSIM > list[j-1].SSIM {
				t.Fatalf("similar list for %q not sorted at %d", base, j)
			}
		}
	}
	// 'a' must have at least its identical Cyrillic twin and diacritic family.
	if list := tab.Similar('a'); len(list) == 0 || list[0].SSIM < 0.99 {
		t.Fatal("no near-identical homoglyphs for 'a'")
	}
}
