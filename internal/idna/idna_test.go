package idna

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"idnlab/internal/punycode"
)

func TestToASCIIKnownDomains(t *testing.T) {
	cases := []struct {
		unicode string
		ace     string
	}{
		{"波色.com", "xn--0wwy37b.com"},              // paper §IV-C gambling IDN
		{"中国", "xn--fiqs8s"},                       // paper §II iTLD
		{"аpple.com", "xn--pple-43d.com"},          // 2017 attack
		{"example.com", "example.com"},             // ASCII passthrough
		{"EXAMPLE.COM", "example.com"},             // case folding
		{"www.пример.com", "www.xn--e1afmkfd.com"}, // 3-label
		{"日本語.jp", "xn--wgv71a119e.jp"},            // Japanese
		{"한국.kr", "xn--3e0b707e.kr"},               // Korean
		{"bücher.de", "xn--bcher-kva.de"},          // German umlaut
		{"☃.net", "xn--n3h.net"},                   // snowman
		{"xn--pple-43d.com", "xn--pple-43d.com"},   // already encoded
		{"facebook.com.", "facebook.com."},         // rooted
	}
	for _, tc := range cases {
		got, err := ToASCII(tc.unicode)
		if err != nil {
			t.Errorf("ToASCII(%q): %v", tc.unicode, err)
			continue
		}
		if got != tc.ace {
			t.Errorf("ToASCII(%q) = %q, want %q", tc.unicode, got, tc.ace)
		}
	}
}

func TestToUnicodeKnownDomains(t *testing.T) {
	cases := []struct {
		ace     string
		unicode string
	}{
		{"xn--0wwy37b.com", "波色.com"},
		{"xn--fiqs8s", "中国"},
		{"xn--pple-43d.com", "аpple.com"},
		{"example.com", "example.com"},
		{"XN--FIQS8S", "中国"}, // case-insensitive prefix
	}
	for _, tc := range cases {
		got, err := ToUnicode(tc.ace)
		if err != nil {
			t.Errorf("ToUnicode(%q): %v", tc.ace, err)
			continue
		}
		if got != tc.unicode {
			t.Errorf("ToUnicode(%q) = %q, want %q", tc.ace, got, tc.unicode)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	domains := []string{
		"波色.com", "中国", "аpple.com", "日本語.jp", "한국.kr",
		"apple邮箱.com", "58汽车.com", "格力空调.net", "北京交通大学.com",
	}
	for _, d := range domains {
		ace, err := ToASCII(d)
		if err != nil {
			t.Fatalf("ToASCII(%q): %v", d, err)
		}
		uni, err := ToUnicode(ace)
		if err != nil {
			t.Fatalf("ToUnicode(%q): %v", ace, err)
		}
		if uni != d {
			t.Errorf("round trip %q -> %q -> %q", d, ace, uni)
		}
	}
}

func TestToUnicodeIdempotent(t *testing.T) {
	for _, d := range []string{"波色.com", "example.com", "аpple.com"} {
		once, err := ToUnicode(d)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := ToUnicode(once)
		if err != nil {
			t.Fatal(err)
		}
		if once != twice {
			t.Errorf("ToUnicode not idempotent: %q vs %q", once, twice)
		}
	}
}

func TestToASCIIErrors(t *testing.T) {
	cases := []struct {
		name   string
		domain string
		want   error
	}{
		{"empty", "", ErrEmptyLabel},
		{"double-dot", "a..com", ErrEmptyLabel},
		{"leading-dot", ".com", ErrEmptyLabel},
		{"leading-hyphen", "-abc.com", ErrBadLabel},
		{"trailing-hyphen", "abc-.com", ErrBadLabel},
		{"fake-double-hyphen", "ab--cd.com", ErrBadLabel},
		{"space", "a b.com", ErrDisallowedRune},
		{"control", "a\x01b.com", ErrDisallowedRune},
		{"label-too-long", strings.Repeat("a", 64) + ".com", ErrLabelTooLong},
		{"domain-too-long", strings.Repeat(strings.Repeat("a", 60)+".", 5) + "com", ErrDomainTooLong},
		{"bad-ace", "xn--!!!.com", nil}, // any error acceptable
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ToASCII(tc.domain)
			if err == nil {
				t.Fatalf("ToASCII(%q) succeeded", tc.domain)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestToASCIIEncodedLabelLengthEnforced(t *testing.T) {
	// Widely-spread Han characters have large Bootstring deltas, so 40 of
	// them encode far beyond 63 octets. (A repeated single character would
	// not: its deltas are zero — that compactness is itself a Bootstring
	// property worth pinning here.)
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteRune(rune(0x4E00 + i*251))
	}
	long := b.String() + ".com"
	if _, err := ToASCII(long); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("err = %v, want ErrLabelTooLong", err)
	}
}

func TestIsACELabel(t *testing.T) {
	cases := []struct {
		label string
		want  bool
	}{
		{"xn--fiqs8s", true},
		{"XN--FIQS8S", true},
		{"xn--", false}, // prefix alone is not an IDN label
		{"xn-a", false},
		{"example", false},
		{"xnot", false},
	}
	for _, tc := range cases {
		if got := IsACELabel(tc.label); got != tc.want {
			t.Errorf("IsACELabel(%q) = %v, want %v", tc.label, got, tc.want)
		}
	}
}

func TestIsIDN(t *testing.T) {
	cases := []struct {
		domain string
		want   bool
	}{
		{"example.com", false},
		{"xn--0wwy37b.com", true},
		{"波色.com", true},
		{"www.xn--fiqs8s", true},
		{"sub.example.xn--fiqs8s", true},
		{"xnot.com", false},
		{"a.xn--b", false}, // xn-- alone with one char... actually xn--b is ACE
	}
	// fix expectation: "xn--b" has length 5 > 4, so it is ACE-shaped.
	cases[len(cases)-1].want = true
	for _, tc := range cases {
		if got := IsIDN(tc.domain); got != tc.want {
			t.Errorf("IsIDN(%q) = %v, want %v", tc.domain, got, tc.want)
		}
	}
}

func TestSLDAndTLD(t *testing.T) {
	cases := []struct {
		domain   string
		sld      string
		tld      string
		sldLabel string
	}{
		{"www.example.com", "example.com", "com", "example"},
		{"example.com", "example.com", "com", "example"},
		{"com", "com", "com", "com"},
		{"a.b.c.example.org", "example.org", "org", "example"},
		{"xn--0wwy37b.com.", "xn--0wwy37b.com", "com", "xn--0wwy37b"},
	}
	for _, tc := range cases {
		if got := SLD(tc.domain); got != tc.sld {
			t.Errorf("SLD(%q) = %q, want %q", tc.domain, got, tc.sld)
		}
		if got := TLD(tc.domain); got != tc.tld {
			t.Errorf("TLD(%q) = %q, want %q", tc.domain, got, tc.tld)
		}
		if got := SLDLabel(tc.domain); got != tc.sldLabel {
			t.Errorf("SLDLabel(%q) = %q, want %q", tc.domain, got, tc.sldLabel)
		}
	}
}

func TestToASCIIQuickProperty(t *testing.T) {
	// For any successfully converted domain, the output is pure ASCII,
	// within DNS limits, and ToUnicode(ToASCII(x)) round-trips to a form
	// that re-encodes identically.
	f := func(raw []uint16) bool {
		runes := make([]rune, 0, len(raw))
		for _, v := range raw {
			r := rune(v)
			if r < 0x21 || (r >= 0xD800 && r <= 0xDFFF) || r == '.' {
				continue
			}
			runes = append(runes, r)
		}
		if len(runes) == 0 || len(runes) > 20 {
			return true
		}
		domain := string(runes) + ".com"
		ace, err := ToASCII(domain)
		if err != nil {
			return true // invalid inputs may be rejected
		}
		for i := 0; i < len(ace); i++ {
			if ace[i] >= 0x80 {
				return false
			}
		}
		if len(ace) > 253 {
			return false
		}
		uni, err := ToUnicode(ace)
		if err != nil {
			return false
		}
		ace2, err := ToASCII(uni)
		return err == nil && ace2 == ace
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkToASCIIIDN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ToASCII("北京交通大学.com"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsIDNScan(b *testing.B) {
	domains := []string{"example.com", "xn--0wwy37b.com", "another-name.net", "xn--fiqs8s"}
	for i := 0; i < b.N; i++ {
		_ = IsIDN(domains[i%len(domains)])
	}
}

// TestToUnicodeRejectsFakeALabel: an A-label whose decoded form is pure
// ASCII is refused (RFC 5891 §5.4), not read as that ASCII label.
func TestToUnicodeRejectsFakeALabel(t *testing.T) {
	for _, d := range []string{"xn--apple-.com", "xn---.com", "www.xn--a-b-.org"} {
		if got, err := ToUnicode(d); !errors.Is(err, ErrBadLabel) {
			t.Errorf("ToUnicode(%q) = %q, %v; want ErrBadLabel", d, got, err)
		}
	}
}

// TestCanonical pins the one-pass conversion: the inputs it takes come
// back as ToASCII(ToUnicode(d)) and ToUnicode(d), with the ACE form
// being d itself; everything else is left to the two-step path.
func TestCanonical(t *testing.T) {
	for _, d := range []string{
		"example.com", "www.example.com.", "a-b.c-d", "xn--pple-43d.com",
		"www.xn--e1afmkfd.com", "xn--pple-43d.xn--fiqs8s.", "1.2.3",
	} {
		ace, uni, ok := Canonical(d)
		wantUni, err := ToUnicode(d)
		if err != nil {
			t.Fatal(err)
		}
		wantACE, err := ToASCII(wantUni)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || ace != wantACE || uni != wantUni || ace != d {
			t.Errorf("Canonical(%q) = %q, %q, %v; want %q, %q, true", d, ace, uni, ok, wantACE, wantUni)
		}
	}
	for _, d := range []string{
		"", ".", "a..b", "EXAMPLE.com", "XN--pple-43d.com", "xn--PPLE-43d.com",
		"аpple.com", "ab--cd.com", "-a.com", "a-.com", "xn--.com",
		"xn--apple-.com", "xn--zz!.com", strings.Repeat("a", 64) + ".com",
		strings.Repeat("a.", 126) + "ab", "a b.com", "a/b.com",
	} {
		if ace, uni, ok := Canonical(d); ok {
			t.Errorf("Canonical(%q) = %q, %q, true; want !ok", d, ace, uni)
		}
	}
}

// TestToUnicodeLabelMatchesDecode holds the stack-buffer decode to the
// string path it replaced: punycode.Decode, then the rune checks and the
// fake-A-label rule over the decoded string, with the same error text.
func TestToUnicodeLabelMatchesDecode(t *testing.T) {
	reference := func(label string) (string, error) {
		label = fold(label)
		decoded, err := punycode.Decode(label[len(ACEPrefix):])
		if err != nil {
			return "", fmt.Errorf("idna: decode %q: %w", label, err)
		}
		if err := validateRunes(decoded); err != nil {
			return "", err
		}
		if isASCII(decoded) {
			return "", fmt.Errorf("%w: fake A-label %q decodes to ASCII %q", ErrBadLabel, label, decoded)
		}
		return decoded, nil
	}
	for _, label := range []string{
		"xn--pple-43d", "XN--PPLE-43d", "xn--80ak6aa92e", "xn--fiqs8s", "xn--e1afmkfd",
		"xn--apple-", "xn---", "xn--a-b-", "xn--zz!", "xn--é", "xn--99999999999",
		"xn--a.b-l4a", "xn--a b-t6a", "xn--ab-j1t", // decode to a "." and a " " (refused) and a ZWNJ
		"xn--" + strings.Repeat("a", 70) + "-43d", // longer than the stack buffer
	} {
		got, err := ToUnicodeLabel(label)
		want, wantErr := reference(label)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("ToUnicodeLabel(%q) = %q, %v; the Decode path gives %q, %v", label, got, err, want, wantErr)
		}
		// AppendUnicodeLabel appends the same bytes after what dst holds,
		// and leaves dst as it was on an error.
		out, err := AppendUnicodeLabel([]byte("prefix:"), label)
		if string(out) != "prefix:"+want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("AppendUnicodeLabel(prefix, %q) = %q, %v; want %q, %v", label, out, err, "prefix:"+want, wantErr)
		}
	}
}

// TestToUnicodeLabelAllocs pins the match side's decode at one
// allocation, the returned string: the code points are decoded into a
// stack buffer. AppendUnicodeLabel into a buffer with room makes none.
func TestToUnicodeLabelAllocs(t *testing.T) {
	for _, label := range []string{"xn--pple-43d", "xn--80ak6aa92e", "xn--fiqs8s"} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := ToUnicodeLabel(label); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("ToUnicodeLabel(%q): %.0f allocations, want 1", label, allocs)
		}
		buf := make([]byte, 0, 64)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := AppendUnicodeLabel(buf, label); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendUnicodeLabel(%q) into room: %.0f allocations, want 0", label, allocs)
		}
	}
}

// BenchmarkToUnicodeLabel is the watch tier's per-owner decode: one op
// decodes one A-label of a Cyrillic, a Han and a mixed Latin owner.
func BenchmarkToUnicodeLabel(b *testing.B) {
	labels := []string{"xn--80ak6aa92e", "xn--fiqs8s", "xn--pple-43d", "xn--gogle-jta7c"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ToUnicodeLabel(labels[i%len(labels)]); err != nil {
			b.Fatal(err)
		}
	}
}
