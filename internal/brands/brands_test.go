package brands

import (
	"strings"
	"testing"

	"idnlab/internal/idna"
)

func TestListHasExactlyThousand(t *testing.T) {
	if n := len(List()); n != 1000 {
		t.Fatalf("len(List()) = %d, want 1000", n)
	}
}

func TestRanksAreSequential(t *testing.T) {
	for i, b := range List() {
		if b.Rank != i+1 {
			t.Fatalf("entry %d has rank %d", i, b.Rank)
		}
	}
}

func TestPaperBrandsAtStatedRanks(t *testing.T) {
	want := map[string]int{
		"google.com":   1,
		"youtube.com":  2,
		"facebook.com": 3,
		"qq.com":       9,
		"amazon.com":   11,
		"twitter.com":  13,
		"apple.com":    55,
		"soso.com":     96,
		"china.com":    166,
		"1688.com":     191,
		"bet365.com":   332,
		"icloud.com":   372,
		"go.com":       391,
		"sex.com":      537,
		"as.com":       634,
		"ea.com":       742,
		"58.com":       861,
	}
	for domain, rank := range want {
		b, ok := Lookup(domain)
		if !ok {
			t.Errorf("brand %s missing", domain)
			continue
		}
		if b.Rank != rank {
			t.Errorf("%s rank = %d, want %d", domain, b.Rank, rank)
		}
	}
}

func TestDomainsUniqueAndValid(t *testing.T) {
	seen := make(map[string]bool, 1000)
	for _, b := range List() {
		if seen[b.Domain] {
			t.Fatalf("duplicate domain %s", b.Domain)
		}
		seen[b.Domain] = true
		if _, err := idna.ToASCII(b.Domain); err != nil {
			t.Errorf("brand %s invalid: %v", b.Domain, err)
		}
		for i := 0; i < len(b.Domain); i++ {
			if b.Domain[i] >= 0x80 {
				t.Errorf("brand %s is not ASCII", b.Domain)
			}
		}
		if strings.Count(b.Domain, ".") != 1 {
			t.Errorf("brand %s is not an SLD", b.Domain)
		}
	}
}

func TestLabel(t *testing.T) {
	b, _ := Lookup("google.com")
	if b.Label() != "google" {
		t.Errorf("Label = %q", b.Label())
	}
}

func TestTopK(t *testing.T) {
	if got := TopK(10); len(got) != 10 || got[0].Domain != "google.com" {
		t.Errorf("TopK(10) = %v", got)
	}
	if got := TopK(0); len(got) != 0 {
		t.Error("TopK(0) should be empty")
	}
	if got := TopK(-3); len(got) != 0 {
		t.Error("TopK(-3) should be empty")
	}
	if got := TopK(5000); len(got) != 1000 {
		t.Error("TopK should clamp to 1000")
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	if _, ok := Lookup("GOOGLE.COM"); !ok {
		t.Error("Lookup should be case-insensitive")
	}
	if _, ok := Lookup("definitely-not-a-brand.example"); ok {
		t.Error("unexpected hit")
	}
}

func TestLabels(t *testing.T) {
	top := TopK(3)
	want := []string{"google", "youtube", "facebook"}
	for i, w := range want {
		if top[i].Label() != w {
			t.Errorf("TopK(3)[%d].Label() = %q, want %q", i, top[i].Label(), w)
		}
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a := List()
	b := List()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("List() not stable")
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	List()
	for i := 0; i < b.N; i++ {
		_, _ = Lookup("icloud.com")
	}
}
