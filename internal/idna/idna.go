// Package idna implements Internationalizing Domain Names in Applications
// (IDNA): whole-domain conversion between Unicode form and the
// ASCII-compatible encoding (ACE) form used on the wire, per RFC 3490 and
// the registration flow described in the paper's §II. Labels containing
// non-ASCII code points are Punycode-encoded (package punycode) and prefixed
// with "xn--"; ASCII labels pass through after case folding and validation.
package idna

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"idnlab/internal/punycode"
)

// ACEPrefix is the ASCII-compatible-encoding prefix prepended to
// Punycode-encoded labels (RFC 3490 §5).
const ACEPrefix = "xn--"

// DNS length limits (RFC 1035).
const (
	maxLabelLength  = 63
	maxDomainLength = 253
)

// Errors returned by the conversion functions.
var (
	// ErrEmptyLabel reports an empty label (consecutive or leading dots).
	ErrEmptyLabel = errors.New("idna: empty label")
	// ErrLabelTooLong reports an encoded label exceeding 63 octets.
	ErrLabelTooLong = errors.New("idna: label exceeds 63 octets")
	// ErrDomainTooLong reports an encoded domain exceeding 253 octets.
	ErrDomainTooLong = errors.New("idna: domain exceeds 253 octets")
	// ErrBadLabel reports a label violating LDH/hyphen placement rules.
	ErrBadLabel = errors.New("idna: invalid label")
	// ErrDisallowedRune reports a code point forbidden in domain labels.
	ErrDisallowedRune = errors.New("idna: disallowed code point")
)

// foldRune lower-cases ASCII letters; other code points are returned
// unchanged. Full Unicode case folding (Nameprep) is out of scope: the
// paper's corpus comes from zone files, which are already folded.
func foldRune(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// fold lower-cases the ASCII letters of s.
func fold(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		b.WriteRune(foldRune(r))
	}
	return b.String()
}

// disallowed reports a code point that may never appear in a label:
// controls, space, DEL, the label separator itself and the delimiters of
// a URL's authority.
func disallowed(r rune) bool {
	return r < 0x21 || r == 0x7F || r == '.' || r == '/' || r == '\\' || r == '@' || r == ':'
}

// validateRunes rejects the disallowed code points.
func validateRunes(label string) error {
	for _, r := range label {
		switch {
		case !disallowed(r):
		case r < 0x21 || r == 0x7F:
			return fmt.Errorf("%w: U+%04X", ErrDisallowedRune, r)
		default:
			return fmt.Errorf("%w: %q", ErrDisallowedRune, r)
		}
	}
	return nil
}

// validateHyphens enforces the RFC 5891 hyphen restrictions on an encoded
// (ASCII) label: no leading or trailing hyphen, and no "--" in the third and
// fourth position unless the label carries the ACE prefix.
func validateHyphens(ace string) error {
	if ace == "" {
		return ErrEmptyLabel
	}
	if ace[0] == '-' || ace[len(ace)-1] == '-' {
		return fmt.Errorf("%w: leading or trailing hyphen in %q", ErrBadLabel, ace)
	}
	if len(ace) >= 4 && ace[2] == '-' && ace[3] == '-' && !strings.HasPrefix(ace, ACEPrefix) {
		return fmt.Errorf("%w: hyphens in positions 3-4 of %q", ErrBadLabel, ace)
	}
	return nil
}

// IsACELabel reports whether the (ASCII) label carries the ACE prefix —
// the test the paper uses to extract IDNs from zone files.
func IsACELabel(label string) bool {
	return len(label) > len(ACEPrefix) && strings.EqualFold(label[:len(ACEPrefix)], ACEPrefix)
}

// ToASCIILabel converts a single label to its ACE form. Pure-ASCII labels
// are returned folded and validated; labels with non-ASCII code points are
// Punycode-encoded and prefixed.
func ToASCIILabel(label string) (string, error) {
	label = fold(label)
	if label == "" {
		return "", ErrEmptyLabel
	}
	if err := validateRunes(label); err != nil {
		return "", err
	}
	out := label
	if !isASCII(label) {
		enc, err := punycode.Encode(label)
		if err != nil {
			return "", fmt.Errorf("idna: encode label: %w", err)
		}
		out = ACEPrefix + enc
	} else if IsACELabel(label) {
		// Already-encoded input: validate it decodes.
		if _, err := punycode.Decode(label[len(ACEPrefix):]); err != nil {
			return "", fmt.Errorf("idna: ACE label %q: %w", label, err)
		}
	}
	if len(out) > maxLabelLength {
		return "", fmt.Errorf("%w: %q (%d octets)", ErrLabelTooLong, out, len(out))
	}
	if err := validateHyphens(out); err != nil {
		return "", err
	}
	return out, nil
}

// ToUnicodeLabel converts a single label to its Unicode form. Labels with
// the ACE prefix are decoded; others are returned folded. A label whose
// decoded form is itself pure ASCII is rejected as a fake ACE label
// ("hyper-encoded" labels are a known squatting trick): an A-label must
// decode to a label with a non-ASCII code point (RFC 5891 §5.4).
func ToUnicodeLabel(label string) (string, error) {
	label = fold(label)
	if label == "" {
		return "", ErrEmptyLabel
	}
	if !IsACELabel(label) {
		if err := validateRunes(label); err != nil {
			return "", err
		}
		return label, nil
	}
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

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// ToASCII converts a whole domain name (labels separated by '.') to ACE
// form, validating each label and the overall length. A single trailing dot
// (root) is preserved.
func ToASCII(domain string) (string, error) {
	return mapLabels(domain, ToASCIILabel, true)
}

// ToUnicode converts a whole domain name to Unicode display form. Length
// limits are not enforced on the Unicode form (they apply on the wire).
func ToUnicode(domain string) (string, error) {
	return mapLabels(domain, ToUnicodeLabel, false)
}

// Canonical converts, in one pass, a name that is already in canonical
// form: the ACE and Unicode forms ToASCII(ToUnicode(domain)) and
// ToUnicode(domain) would return, with ok. It takes two kinds of input
// and reports !ok for everything else — Unicode input, upper case, any
// name that breaks a rule — which the caller sends through the two-step
// conversion, so error texts come from one place:
//
//   - lowercase ASCII with no A-label, whose labels pass ToASCIILabel's
//     rules: domain itself is both forms, with no copy;
//   - lowercase ASCII whose A-labels each decode, pass ToUnicodeLabel's
//     rules and re-encode to exactly themselves: domain itself is the
//     ACE form and only the Unicode string is built.
func Canonical(domain string) (ace, unicode string, ok bool) {
	name := domain
	if len(name) > 1 && name[len(name)-1] == '.' {
		name = name[:len(name)-1] // root
	}
	if name == "" || len(name) > maxDomainLength {
		return "", "", false
	}
	aLabels := false
	start := 0
	for i := 0; i <= len(name); i++ {
		if i < len(name) && name[i] != '.' {
			if c := name[i]; c >= 0x80 || 'A' <= c && c <= 'Z' || disallowed(rune(c)) {
				return "", "", false
			}
			continue
		}
		label := name[start:i]
		start = i + 1
		if label == "" || len(label) > maxLabelLength || label[0] == '-' || label[len(label)-1] == '-' {
			return "", "", false
		}
		if len(label) >= 4 && label[2] == '-' && label[3] == '-' {
			if label[:len(ACEPrefix)] != ACEPrefix {
				return "", "", false
			}
			aLabels = true
		}
	}
	if !aLabels {
		return domain, domain, true
	}
	// Both forms of any name fit: a decoded code point takes at least one
	// ACE byte and at most four UTF-8 bytes.
	var buf [4 * (maxDomainLength + 1)]byte
	var runes [maxLabelLength]rune
	var enc [maxLabelLength]byte
	uni := buf[:0]
	for rest := domain; rest != ""; {
		label := rest
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			label, rest = rest[:dot], rest[dot+1:]
		} else {
			rest = ""
		}
		if !IsACELabel(label) {
			uni = append(append(uni, label...), '.')
			continue
		}
		decoded, err := punycode.AppendDecode(runes[:0], label[len(ACEPrefix):])
		if err != nil {
			return "", "", false
		}
		nonASCII := false
		for _, r := range decoded {
			if disallowed(r) {
				return "", "", false
			}
			nonASCII = nonASCII || r >= 0x80
		}
		if !nonASCII {
			return "", "", false
		}
		re, err := punycode.AppendEncode(enc[:0], decoded)
		if err != nil || string(re) != label[len(ACEPrefix):] {
			return "", "", false
		}
		for _, r := range decoded {
			uni = utf8.AppendRune(uni, r)
		}
		uni = append(uni, '.')
	}
	if name != domain {
		return domain, string(uni), true // uni ends in the root dot
	}
	return domain, string(uni[:len(uni)-1]), true
}

// mapLabels applies convert to each label of domain and rejoins.
func mapLabels(domain string, convert func(string) (string, error), enforceLength bool) (string, error) {
	rooted := strings.HasSuffix(domain, ".") && domain != "."
	if rooted {
		domain = domain[:len(domain)-1]
	}
	if domain == "" {
		return "", ErrEmptyLabel
	}
	labels := strings.Split(domain, ".")
	out := make([]string, len(labels))
	for i, label := range labels {
		converted, err := convert(label)
		if err != nil {
			return "", fmt.Errorf("label %d: %w", i+1, err)
		}
		out[i] = converted
	}
	joined := strings.Join(out, ".")
	if enforceLength && len(joined) > maxDomainLength {
		return "", ErrDomainTooLong
	}
	if rooted {
		joined += "."
	}
	return joined, nil
}

// IsIDN reports whether the domain contains at least one internationalized
// label, in either Unicode or ACE form. This is the predicate the zone
// scanner applies to 154M SLDs.
func IsIDN(domain string) bool {
	for i := 0; i < len(domain); i++ {
		if domain[i] >= 0x80 {
			return true
		}
	}
	start := 0
	for i := 0; i <= len(domain); i++ {
		if i == len(domain) || domain[i] == '.' {
			if IsACELabel(domain[start:i]) {
				return true
			}
			start = i + 1
		}
	}
	return false
}

// Label addresses one label of a domain without allocating the split.
// SLD returns the second-level-domain portion ("example.com" for
// "www.example.com") assuming a single-label TLD, which holds for every
// TLD in the corpus (com/net/org and iTLDs).
func SLD(domain string) string {
	domain = strings.TrimSuffix(domain, ".")
	last := strings.LastIndexByte(domain, '.')
	if last < 0 {
		return domain
	}
	prev := strings.LastIndexByte(domain[:last], '.')
	return domain[prev+1:]
}

// TLD returns the top-level-domain label of the domain, without dots.
func TLD(domain string) string {
	domain = strings.TrimSuffix(domain, ".")
	last := strings.LastIndexByte(domain, '.')
	if last < 0 {
		return domain
	}
	return domain[last+1:]
}

// SLDLabel returns the second-level label alone ("example" for
// "www.example.com").
func SLDLabel(domain string) string {
	sld := SLD(domain)
	dot := strings.IndexByte(sld, '.')
	if dot < 0 {
		return sld
	}
	return sld[:dot]
}
