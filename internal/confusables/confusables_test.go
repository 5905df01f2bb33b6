package confusables

import (
	"testing"
	"testing/quick"

	"idnlab/internal/idna"
)

func TestDefaultTableContainsKnownHomoglyphs(t *testing.T) {
	tab := Default()
	wantPairs := []struct {
		base rune
		homo rune
	}{
		{'a', 'а'}, // Cyrillic a — the 2017 apple.com attack
		{'a', 'á'},
		{'a', 'ạ'},
		{'e', 'е'},
		{'o', 'о'},
		{'o', 'ö'},
		{'s', 'ѕ'},
		{'c', 'с'},
		{'p', 'р'},
		{'x', 'х'},
		{'y', 'у'},
	}
	for _, p := range wantPairs {
		found := false
		for _, h := range tab.Homoglyphs(p.base) {
			if h == p.homo {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("homoglyphs of %q missing %q (U+%04X)", p.base, p.homo, p.homo)
		}
	}
}

func TestEveryLetterHasHomoglyphs(t *testing.T) {
	// The availability study needs substitution options for common brand
	// letters; every Latin letter should have at least one homoglyph.
	tab := Default()
	for r := 'a'; r <= 'z'; r++ {
		if len(tab.Homoglyphs(r)) == 0 {
			t.Errorf("letter %q has no homoglyphs", r)
		}
	}
}

func TestHomoglyphsAreNonASCII(t *testing.T) {
	tab := Default()
	for _, base := range tab.Bases() {
		for _, h := range tab.Homoglyphs(base) {
			if h < 0x80 {
				t.Errorf("ASCII %q listed as homoglyph of %q", h, base)
			}
		}
	}
}

func TestBaseOf(t *testing.T) {
	tab := Default()
	cases := []struct {
		r    rune
		want rune
		ok   bool
	}{
		{'a', 'a', true},
		{'A', 'a', true},
		{'7', '7', true},
		{'-', '-', true},
		{'.', '.', true},
		{'а', 'a', true},
		{'ö', 'o', true},
		{'中', 0, false},
		{'!', 0, false},
	}
	for _, tc := range cases {
		got, ok := tab.BaseOf(tc.r)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BaseOf(%q) = %q,%v want %q,%v", tc.r, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSkeletonFoldsAttackDomains(t *testing.T) {
	tab := Default()
	cases := []struct{ in, want string }{
		{"аpple.com", "apple.com"},
		{"ѕоѕо.com", "soso.com"},
		{"gооglе.com", "google.com"},
		{"fаċebook.com", "facebook.com"},
		{"example.com", "example.com"},
		{"apple邮箱.com", "apple邮箱.com"}, // CJK untouched
	}
	for _, tc := range cases {
		if got := tab.Skeleton(tc.in); got != tc.want {
			t.Errorf("Skeleton(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSkeletonIdempotent(t *testing.T) {
	tab := Default()
	if err := quick.Check(func(raw []uint16) bool {
		runes := make([]rune, 0, len(raw))
		for _, v := range raw {
			r := rune(v)
			if r >= 0xD800 && r <= 0xDFFF {
				continue
			}
			runes = append(runes, r)
		}
		s := string(runes)
		once := tab.Skeleton(s)
		return tab.Skeleton(once) == once
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonASCIIIdentityOnLDH(t *testing.T) {
	tab := Default()
	s := "abcdefghijklmnopqrstuvwxyz0123456789-."
	if got := tab.Skeleton(s); got != s {
		t.Errorf("Skeleton(LDH) changed: %q", got)
	}
}

func TestVariantsGenerateValidIDNs(t *testing.T) {
	tab := Default()
	vars := tab.Variants("eay") // paper registered xn--eay-6xy.com etc.
	if len(vars) == 0 {
		t.Fatal("no variants generated")
	}
	seen := make(map[string]bool, len(vars))
	for _, v := range vars {
		if seen[v] {
			t.Errorf("duplicate variant %q", v)
		}
		seen[v] = true
		if v == "eay" {
			t.Error("variant equals original")
		}
		// Each variant differs in exactly one rune.
		diff := 0
		vr, or := []rune(v), []rune("eay")
		if len(vr) != len(or) {
			t.Fatalf("variant %q has different length", v)
		}
		for i := range vr {
			if vr[i] != or[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("variant %q differs in %d positions", v, diff)
		}
		// And must be encodable as an IDN label.
		if _, err := idna.ToASCIILabel(v); err != nil {
			t.Errorf("variant %q not encodable: %v", v, err)
		}
	}
}

func TestVariantsEmptyForCJK(t *testing.T) {
	tab := Default()
	if vars := tab.Variants("中国"); len(vars) != 0 {
		t.Errorf("CJK label should have no homoglyph variants, got %d", len(vars))
	}
}

func TestBuildThresholdMonotone(t *testing.T) {
	loose := Build(0.5)
	strict := Build(0.95)
	if loose.Size() <= strict.Size() {
		t.Errorf("loose table (%d) should exceed strict table (%d)", loose.Size(), strict.Size())
	}
	// Every strict entry must also be in the loose table.
	for _, base := range strict.Bases() {
		looseSet := make(map[rune]bool)
		for _, h := range loose.Homoglyphs(base) {
			looseSet[h] = true
		}
		for _, h := range strict.Homoglyphs(base) {
			if !looseSet[h] {
				t.Errorf("strict entry %q->%q missing from loose table", base, h)
			}
		}
	}
}

func TestTableScale(t *testing.T) {
	// The paper built 128,432 candidates for 1k brands with UC-SimList;
	// our table needs enough density to exercise the same pipeline. With
	// ~200 composed code points we expect well over 100 entries.
	tab := Default()
	if tab.Size() < 100 {
		t.Errorf("table has only %d entries; repertoire too thin", tab.Size())
	}
	if tab.Size() > 1000 {
		t.Errorf("table has %d entries; threshold admitting junk?", tab.Size())
	}
}

func TestHomoglyphsSorted(t *testing.T) {
	tab := Default()
	for _, base := range tab.Bases() {
		hs := tab.Homoglyphs(base)
		for i := 1; i < len(hs); i++ {
			if hs[i-1] >= hs[i] {
				t.Fatalf("homoglyphs of %q not sorted", base)
			}
		}
	}
}

func BenchmarkSkeletonAttackDomain(b *testing.B) {
	tab := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tab.Skeleton("fаċebооk.com")
	}
}

func BenchmarkVariantsBrand(b *testing.B) {
	tab := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Variants("facebook")
	}
}

func BenchmarkBuildTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Build(DefaultOverlapThreshold)
	}
}

func TestVariantsMultiSupersetOfSingle(t *testing.T) {
	tab := Default()
	single := tab.Variants("ea")
	multi := tab.VariantsMulti("ea", 1, 0)
	if len(multi) != len(single) {
		t.Fatalf("maxSubs=1 should equal single-substitution: %d vs %d", len(multi), len(single))
	}
	set := make(map[string]bool, len(multi))
	for _, v := range multi {
		set[v] = true
	}
	for _, v := range single {
		if !set[v] {
			t.Errorf("single variant %q missing from multi set", v)
		}
	}
}

func TestVariantsMultiGrowth(t *testing.T) {
	tab := Default()
	one := tab.VariantCountMulti("google", 1)
	two := tab.VariantCountMulti("google", 2)
	if two <= one {
		t.Errorf("two-substitution space (%d) should exceed one (%d)", two, one)
	}
	// The full two-sub space must match the enumerator.
	enum := tab.VariantsMulti("google", 2, 0)
	if len(enum) != two {
		t.Errorf("enumerated %d, counted %d", len(enum), two)
	}
}

func TestVariantsMultiLimit(t *testing.T) {
	tab := Default()
	capped := tab.VariantsMulti("facebook", 2, 50)
	if len(capped) != 50 {
		t.Errorf("limit not honored: %d", len(capped))
	}
}

func TestVariantsMultiSubstitutionBound(t *testing.T) {
	tab := Default()
	for _, v := range tab.VariantsMulti("apple", 2, 500) {
		diffs := 0
		vr := []rune(v)
		or := []rune("apple")
		if len(vr) != len(or) {
			t.Fatalf("length changed: %q", v)
		}
		for i := range vr {
			if vr[i] != or[i] {
				diffs++
			}
		}
		if diffs < 1 || diffs > 2 {
			t.Errorf("variant %q has %d substitutions", v, diffs)
		}
	}
}

func TestVariantsMultiInvalidArgs(t *testing.T) {
	tab := Default()
	if got := tab.VariantsMulti("abc", 0, 0); got != nil {
		t.Errorf("maxSubs=0 should yield nil, got %d", len(got))
	}
}
