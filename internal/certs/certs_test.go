package certs

import (
	"testing"
	"time"
)

var testNow = time.Date(2017, 10, 1, 0, 0, 0, 0, time.UTC)

func newTestAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority(42, testNow)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidCertificateClassifiesNone(t *testing.T) {
	a := newTestAuthority(t)
	cert, err := a.Issue("xn--0wwy37b.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(cert, "xn--0wwy37b.com", testNow, a.Roots()); got != ProblemNone {
		t.Errorf("Classify = %v, want None", got)
	}
}

func TestExpiredCertificate(t *testing.T) {
	a := newTestAuthority(t)
	cert, err := a.Issue("old.com", Expired())
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(cert, "old.com", testNow, a.Roots()); got != ProblemExpired {
		t.Errorf("Classify = %v, want Expired", got)
	}
	// The same certificate was valid six months before the snapshot.
	past := testNow.AddDate(0, -6, 0)
	if got := Classify(cert, "old.com", past, a.Roots()); got != ProblemNone {
		t.Errorf("Classify at %v = %v, want None", past, got)
	}
}

func TestSelfSignedCertificate(t *testing.T) {
	a := newTestAuthority(t)
	cert, err := a.Issue("selfie.net", SelfSigned())
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(cert, "selfie.net", testNow, a.Roots()); got != ProblemInvalidAuthority {
		t.Errorf("Classify = %v, want InvalidAuthority", got)
	}
}

func TestSharedCertificate(t *testing.T) {
	a := newTestAuthority(t)
	cert, err := a.Issue("sedoparking.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(cert, "xn--parked.com", testNow, a.Roots()); got != ProblemInvalidCommonName {
		t.Errorf("Classify = %v, want InvalidCommonName", got)
	}
	// Served for its own name it is fine.
	if got := Classify(cert, "sedoparking.com", testNow, a.Roots()); got != ProblemNone {
		t.Errorf("Classify own name = %v, want None", got)
	}
}

func TestExpiryTakesPriorityOverName(t *testing.T) {
	// Table VI categories are mutually exclusive; expired wins.
	a := newTestAuthority(t)
	cert, err := a.Issue("cafe24.com", Expired())
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(cert, "other.com", testNow, a.Roots()); got != ProblemExpired {
		t.Errorf("Classify = %v, want Expired to dominate", got)
	}
}

func TestDeterministicIssuance(t *testing.T) {
	a1, err := NewAuthority(7, testNow)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAuthority(7, testNow)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := a1.Issue("same.com")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a2.Issue("same.com")
	if err != nil {
		t.Fatal(err)
	}
	// Signature bytes are hedged by crypto/ecdsa and may differ, but the
	// measurement-relevant fields must be reproducible across runs.
	if c1.Subject.CommonName != c2.Subject.CommonName ||
		!c1.NotBefore.Equal(c2.NotBefore) || !c1.NotAfter.Equal(c2.NotAfter) ||
		c1.SerialNumber.Cmp(c2.SerialNumber) != 0 {
		t.Error("same seed should produce identical certificate fields")
	}
	if Classify(c1, "same.com", testNow, a1.Roots()) != Classify(c2, "same.com", testNow, a2.Roots()) {
		t.Error("classification must be deterministic across authorities")
	}
}

func TestStoreGetFoldsCase(t *testing.T) {
	a := newTestAuthority(t)
	s := NewStore()
	cert, err := a.Issue("x.com")
	if err != nil {
		t.Fatal(err)
	}
	s.Deploy("X.COM", cert)
	if _, ok := s.Get("x.com"); !ok {
		t.Error("Get should fold case")
	}
}

func TestProblemString(t *testing.T) {
	if ProblemExpired.String() != "Expired Certificate" {
		t.Error("String wrong")
	}
	if Problem(99).String() != "Unknown" {
		t.Error("unknown problem should say Unknown")
	}
}

func BenchmarkIssue(b *testing.B) {
	a, err := NewAuthority(1, testNow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Issue("bench.com"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	a, err := NewAuthority(1, testNow)
	if err != nil {
		b.Fatal(err)
	}
	cert, err := a.Issue("bench.com")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Classify(cert, "bench.com", testNow, a.Roots())
	}
}
