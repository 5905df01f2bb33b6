package watch

import (
	"fmt"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/zonegen"
)

// testCatalogDetector builds an index-backed detector over the top-k
// real brand catalog.
func testCatalogDetector(t testing.TB, k int) (*core.HomographDetector, []brands.Brand) {
	t.Helper()
	list := brands.TopK(k)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatalf("candidx.Build: %v", err)
	}
	return core.NewHomographDetector(0, core.WithIndex(ix)), list
}

func TestNewMatcherRequiresIndex(t *testing.T) {
	det := core.NewHomographDetector(0, core.WithBrands(brands.TopK(50))) // reference sweep, no index
	if _, err := NewMatcher(det); err == nil {
		t.Fatal("NewMatcher accepted an index-less detector")
	}
}

// TestMatcherEquivalence: Match must agree with the detector's own
// DetectNormalized — same hit/miss decision, same brand, same SSIM —
// on a corpus of attack and benign labels from the zone generator.
func TestMatcherEquivalence(t *testing.T) {
	det, _ := testCatalogDetector(t, 200)
	m, err := NewMatcher(det)
	if err != nil {
		t.Fatal(err)
	}
	oracle := det.Clone()

	reg := zonegen.Generate(zonegen.Config{Seed: 21, Scale: 2000})
	checked, hits := 0, 0
	for _, dom := range reg.Domains {
		n, err := core.Normalize(dom.ACE)
		if err != nil || n.ASCII {
			continue
		}
		checked++
		want, wantOK := oracle.DetectNormalized(n)
		got, gotOK := m.Match(n.Label)
		if gotOK != wantOK {
			t.Fatalf("%s: Match ok=%v, DetectNormalized ok=%v", dom.ACE, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		hits++
		if got.Brand != want.Brand || got.SSIM != want.SSIM {
			t.Fatalf("%s: Match (%s, %v) != DetectNormalized (%s, %v)",
				dom.ACE, got.Brand, got.SSIM, want.Brand, want.SSIM)
		}
	}
	if checked < 50 || hits == 0 {
		t.Fatalf("corpus too thin: %d IDN labels checked, %d hits", checked, hits)
	}
}

// TestMatcherClone: clones share verdicts but not scratch — a clone
// must produce identical results to the original.
func TestMatcherClone(t *testing.T) {
	det, _ := testCatalogDetector(t, 100)
	m, err := NewMatcher(det)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	labels := []string{"аpple", "gооgle", "example", "аmаzon"}
	for _, l := range labels {
		g1, ok1 := m.Match(l)
		g2, ok2 := c.Match(l)
		if ok1 != ok2 || g1 != g2 {
			t.Fatalf("%q: original (%+v,%v) != clone (%+v,%v)", l, g1, ok1, g2, ok2)
		}
	}
}

// TestMatchZeroAlloc: the hot loop must not allocate steady-state —
// this is the property the bench gate enforces at scale; the unit test
// catches regressions without running the bench.
func TestMatchZeroAlloc(t *testing.T) {
	det, _ := testCatalogDetector(t, 500)
	m, err := NewMatcher(det)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 0, 32)
	labels = append(labels, "аpple", "miсrosoft", "gооgle", "benign-label", "xn--unrelated")
	reg := zonegen.Generate(zonegen.Config{Seed: 42, Scale: 300})
	for _, dom := range reg.Domains {
		if len(labels) >= 32 {
			break
		}
		n, err := core.Normalize(dom.ACE)
		if err != nil || n.ASCII {
			continue
		}
		labels = append(labels, n.Label)
	}
	// Warm up scratch buffers and glyph caches.
	for i := 0; i < 3; i++ {
		for _, l := range labels {
			m.Match(l)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Match(labels[i%len(labels)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Match allocates %v/op steady-state, want 0", allocs)
	}
}

// TestMatcherDecode: decode returns what idna.ToUnicodeLabel returns,
// errors included; a label it handed out keeps its bytes while later
// labels fill its chunk and the chunks after it; and a decode allocates
// only when it starts a chunk.
func TestMatcherDecode(t *testing.T) {
	m := &Matcher{}
	owners := []string{"xn--zz!", "xn--apple-", "XN--PPLE-43D", "plain"}
	for i := 0; i < 5000; i++ {
		ace, err := idna.ToASCII(fmt.Sprintf("пример%dдомен", i))
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, ace)
	}
	var got []string
	for _, o := range owners {
		label, err := m.decode(o)
		want, wantErr := idna.ToUnicodeLabel(o)
		if label != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decode(%q) = %q, %v; ToUnicodeLabel gives %q, %v", o, label, err, want, wantErr)
		}
		got = append(got, label)
	}
	for i, o := range owners {
		if want, _ := idna.ToUnicodeLabel(o); got[i] != want {
			t.Fatalf("label %d of %q reads %q after later decodes, want %q", i, o, got[i], want)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.decode("xn--80ak6aa92e"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decode: %.0f allocations per label, want 0 (one per %d-byte chunk)", allocs, labelChunk)
	}
}
