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

// supplementarySample is a spread of code points past the BMP, which
// Fold answers by foldRef: the first and last, CJK Extension B, an
// emoji, a stride through the planes, and a negative rune.
func supplementarySample() []rune {
	out := []rune{0x10000, 0x10FFFF, 0x20000, 0x2A6DF, 0x1F600, -1}
	for r := rune(0x10000); r <= 0x10FFFF; r += 0x1003 {
		out = append(out, r)
	}
	return out
}

// TestFoldMatchesRef: the BMP table Derive fills answers every BMP code
// point exactly as the map-and-bitmap path does, and Fold keeps that
// path past the BMP. Every non-ASCII BMP rune that folds is in foldByte:
// none folds through a hash glyph's bitmap.
func TestFoldMatchesRef(t *testing.T) {
	tab := Default()
	folded := 0
	for r := rune(0); r < 1<<16; r++ {
		b, ok := tab.Fold(r)
		if wb, wok := tab.foldRef(r); b != wb || ok != wok {
			t.Fatalf("Fold(%U) = %q, %v; foldRef = %q, %v", r, b, ok, wb, wok)
		}
		if ok && r >= 0x80 {
			folded++
			if _, designed := tab.foldByte[r]; !designed {
				t.Errorf("%U folds to %q through a hash glyph", r, b)
			}
		}
	}
	if folded != len(tab.foldByte) {
		t.Errorf("%d non-ASCII BMP runes fold, foldByte holds %d", folded, len(tab.foldByte))
	}
	for _, r := range supplementarySample() {
		b, ok := tab.Fold(r)
		if wb, wok := tab.foldRef(r); b != wb || ok != wok {
			t.Fatalf("Fold(%U) = %q, %v; foldRef = %q, %v", r, b, ok, wb, wok)
		}
	}
}

// FuzzRuneTables checks Fold against foldRef at any code point,
// negative and past U+10FFFF included.
func FuzzRuneTables(f *testing.F) {
	for _, r := range []rune{0, 'a', 'A', '-', '.', 'á', 'ѕ', 0xFF5A, 0xFFFF, 0x10000, 0x2A6DF, -1} {
		f.Add(int32(r))
	}
	tab := Default()
	f.Fuzz(func(t *testing.T, r int32) {
		b, ok := tab.Fold(r)
		if wb, wok := tab.foldRef(r); b != wb || ok != wok {
			t.Fatalf("Fold(%U) = %q, %v; foldRef = %q, %v", r, b, ok, wb, wok)
		}
	})
}
