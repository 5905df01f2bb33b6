package core

import (
	"reflect"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
)

// TestNormalizeForms pins the shared normalization: both spellings of a
// name land on the same ACE key, label and ASCII flag.
func TestNormalizeForms(t *testing.T) {
	cases := []struct {
		in, ace, label string
		ascii          bool
	}{
		{"xn--pple-43d.com", "xn--pple-43d.com", "аpple", false},
		{"аpple.com", "xn--pple-43d.com", "аpple", false},
		{"EXAMPLE.com", "example.com", "example", true},
		{"www.example.com", "www.example.com", "example", true},
	}
	for _, c := range cases {
		n, err := Normalize(c.in)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", c.in, err)
		}
		if n.ACE != c.ace || n.Label != c.label || n.ASCII != c.ascii {
			t.Errorf("Normalize(%q) = %+v, want ace=%q label=%q ascii=%v",
				c.in, n, c.ace, c.label, c.ascii)
		}
	}
	for _, bad := range []string{"", "..", "bad..com", "exa mple.com"} {
		if _, err := Normalize(bad); err == nil {
			t.Errorf("Normalize(%q) succeeded, want error", bad)
		}
	}
}

// TestDetectNormalizedEquivalence pins that the normalize-once entry
// points produce byte-identical results to the DetectOne path across the
// whole test corpus — the serving layer and the batch scanners must
// never disagree on a verdict.
func TestDetectNormalizedEquivalence(t *testing.T) {
	homo := NewHomographDetector(1000)
	homo2 := homo.Clone()
	sem := NewSemanticDetector(1000)
	domains := append([]string{}, testDS.IDNs[:min(len(testDS.IDNs), 400)]...)
	domains = append(domains, "xn--pple-43d.com", "apple邮箱.com", "example.com")
	for _, d := range domains {
		n, err := Normalize(d)
		if err != nil {
			continue
		}
		m1, ok1 := homo.DetectOne(d)
		m2, ok2 := homo2.DetectNormalized(n)
		if ok1 != ok2 || m1 != m2 {
			t.Fatalf("homograph divergence on %q: (%v,%v) vs (%v,%v)", d, m1, ok1, m2, ok2)
		}
		s1, ok1 := sem.DetectOne(d)
		s2, ok2 := sem.DetectNormalized(n)
		if ok1 != ok2 || s1 != s2 {
			t.Fatalf("semantic divergence on %q: (%v,%v) vs (%v,%v)", d, s1, ok1, s2, ok2)
		}
	}
}

// TestClassifierVerdict covers the combined single-label entry point the
// serving layer hosts.
func TestClassifierVerdict(t *testing.T) {
	c := NewClassifier(DetectorConfig{TopK: 1000})
	v, err := c.VerdictFor("xn--pple-43d.com")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Flagged() || v.Homograph == nil || v.Homograph.Brand != "apple.com" || !v.IDN {
		t.Fatalf("homograph verdict: %+v", v)
	}
	v, err = c.VerdictFor("apple邮箱.com")
	if err != nil {
		t.Fatal(err)
	}
	if v.Semantic == nil || v.Semantic.Brand != "apple.com" || v.Semantic.Keyword != "邮箱" {
		t.Fatalf("semantic verdict: %+v", v)
	}
	v, err = c.VerdictFor("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if v.Flagged() || v.IDN || v.Domain != "example.com" {
		t.Fatalf("clean verdict: %+v", v)
	}
	if _, err := c.VerdictFor("bad..domain"); err == nil {
		t.Fatal("invalid domain accepted")
	}
}

// TestClassifierOneCatalog: with an index built from the top 50 and a
// TopK of 1000, both detectors defend the index's 50 brands, so a
// semantic attack on the brand ranked 500 is not a match.
func TestClassifierOneCatalog(t *testing.T) {
	ix, err := candidx.Build(brands.TopK(50), candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(DetectorConfig{TopK: 1000, Index: ix})
	if c.Index() != ix {
		t.Fatal("classifier does not report the index it was given")
	}
	for _, b := range []brands.Brand{brands.TopK(1000)[499], brands.TopK(50)[0]} {
		v, err := c.VerdictFor(b.Label() + "邮箱.com")
		if err != nil {
			t.Fatal(err)
		}
		if inIndex := b.Rank <= 50; (v.Semantic != nil) != inIndex {
			t.Errorf("%s (rank %d): semantic match %+v, want a match only for a brand in the index", b.Domain, b.Rank, v.Semantic)
		}
	}
}

// TestDefaultCatalogIsTopK: the default index's catalog gives the same
// semantic label map as brands.TopK(1000), so classifiers built without
// an index answer as the study's semantic detector does.
func TestDefaultCatalogIsTopK(t *testing.T) {
	c := NewClassifier(DetectorConfig{TopK: 1000})
	if got, want := c.sem.brandsByLabel, NewSemanticDetector(1000).brandsByLabel; !reflect.DeepEqual(got, want) {
		t.Fatalf("default index catalog yields %d semantic labels, brands.TopK(1000) %d, and they differ", len(got), len(want))
	}
}

// TestClassifierCloneConcurrent hammers clones of one classifier from
// many goroutines (run under -race): clones share immutable state only.
func TestClassifierCloneConcurrent(t *testing.T) {
	proto := NewClassifier(DetectorConfig{TopK: 1000})
	want, err := proto.VerdictFor("xn--pple-43d.com")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			c := proto.Clone()
			for i := 0; i < 20; i++ {
				got, err := c.VerdictFor("xn--pple-43d.com")
				if err != nil {
					done <- err
					return
				}
				if got.Domain != want.Domain || got.Homograph == nil ||
					got.Homograph.SSIM != want.Homograph.SSIM {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "clone verdict mismatch" }
