package core

import (
	"strings"
	"testing"

	"idnlab/internal/idna"
)

// normalizeTwoStep is the reference Normalize: ToUnicode, then ToASCII
// over the result, for every input.
func normalizeTwoStep(domain string) (NormalizedDomain, error) {
	uni, err := idna.ToUnicode(domain)
	if err != nil {
		return NormalizedDomain{}, err
	}
	ace, err := idna.ToASCII(uni)
	if err != nil {
		return NormalizedDomain{}, err
	}
	label := idna.SLDLabel(uni)
	return NormalizedDomain{ACE: ace, Unicode: uni, Label: label, ASCII: isASCII(label)}, nil
}

// FuzzNormalize pins Normalize, one pass or not, to the two-step
// reference: all four fields on success, the error text on failure.
func FuzzNormalize(f *testing.F) {
	label63 := strings.Repeat("a", 63)
	name253 := strings.Repeat(label63+".", 3) + strings.Repeat("b", 61)
	for _, seed := range []string{
		"example.com", "www.example.com.", ".", "example.com..", "",
		"EXAMPLE.com", "XN--pple-43d.com", "xn--PPLE-43D.com",
		"a..b", ".com", "example.",
		label63 + ".com", label63 + "a.com", name253, name253 + "b",
		"ab--cd.com", "xn--.com", "xn---.com", "-ab.com", "ab-.com",
		"xn--pple-43d.com", "xn--80ak6aa92e.com", "xn--pple-43d.xn--80ak6aa92e.",
		"xn--pple-43D.com", "xn--zz!.com", "xn--a.com", "xn--99999999999.com",
		"xn---80ak6aa92e.com", "xn--apple-.com", "xn--apple-.xn--pple-43d.com",
		"аpple.com", "apple邮箱.com", "bad name.com", "a/b.com",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, domain string) {
		got, gotErr := Normalize(domain)
		want, wantErr := normalizeTwoStep(domain)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Normalize(%q): error %v, two-step error %v", domain, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Normalize(%q): error %q, two-step %q", domain, gotErr, wantErr)
			}
			return
		}
		if got != want {
			t.Fatalf("Normalize(%q) = %+v, two-step %+v", domain, got, want)
		}
	})
}

// TestNormalizeRejectsFakeALabel: an A-label that decodes to pure ASCII
// is not that ASCII name's spelling (RFC 5891 §5.4), so it must neither
// take the name's verdict nor share its cache key.
func TestNormalizeRejectsFakeALabel(t *testing.T) {
	for _, d := range []string{"xn--apple-.com", "www.xn--apple-.com.", "xn---.com"} {
		if n, err := Normalize(d); err == nil {
			t.Errorf("Normalize(%q) = %+v, want a fake A-label error", d, n)
		}
	}
}

// TestNormalizeZeroAlloc pins the one-pass allocation contracts: a
// lowercase ASCII name comes back as itself, and a canonical ACE name
// costs only its Unicode string.
func TestNormalizeZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		domain string
		max    float64
	}{
		{"www.example.com", 0},
		{"example.com.", 0},
		{"xn--pple-43d.com", 3},
		{"xn--80ak6aa92e.com", 3},
	} {
		if _, err := Normalize(c.domain); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { Normalize(c.domain) }); allocs > c.max {
			t.Errorf("Normalize(%q) allocates %v, want at most %v", c.domain, allocs, c.max)
		}
	}
}
