package core

import (
	"unicode/utf8"

	"idnlab/internal/candidx"
)

// detectName normalizes a name and runs one detector on the result; a
// name Normalize rejects matches nothing.
func detectName[M any](detect func(NormalizedDomain) (M, bool), domain string) (M, bool) {
	n, err := Normalize(domain)
	if err != nil {
		var zero M
		return zero, false
	}
	return detect(n)
}

// The sequential corpus scans over one detector: the reference the
// detector clones and the index are compared against.

// Detect scans a domain corpus and returns all homographic matches, sorted
// by brand then domain.
func (d *HomographDetector) Detect(domains []string) []HomographMatch {
	var out []HomographMatch
	for _, domain := range domains {
		if m, ok := detectName(d.DetectNormalized, domain); ok {
			out = append(out, m)
		}
	}
	sortByBrand(out, func(m HomographMatch) (string, string) { return m.Brand, m.Domain })
	return out
}

// Detect scans a corpus for Type-1 semantic IDNs.
func (d *SemanticDetector) Detect(domains []string) []SemanticMatch {
	var out []SemanticMatch
	for _, domain := range domains {
		if m, ok := detectName(d.DetectNormalized, domain); ok {
			out = append(out, m)
		}
	}
	sortByBrand(out, func(m SemanticMatch) (string, string) { return m.Brand, m.Domain })
	return out
}

// sweepFull is DetectNormalized on a WithBrands detector with the sweep
// on the full Score kernel instead of the bounded one: the reference
// that keeps the bounded sweep from being checked only against itself.
func (d *HomographDetector) sweepFull(n NormalizedDomain) (HomographMatch, bool) {
	if n.ASCII {
		return HomographMatch{}, false
	}
	best := HomographMatch{Domain: n.ACE, Unicode: n.Unicode, SSIM: -1}
	labelLen := utf8.RuneCountInString(n.Label)
	for i, b := range d.brandList {
		if diff := labelLen - d.brandLens[i]; diff > 1 || diff < -1 {
			continue
		}
		if score := d.Score(n.Label, b.Label()); score > best.SSIM {
			best.SSIM, best.Brand = score, b.Domain
		}
	}
	if best.SSIM >= candidx.SSIMThreshold {
		return best, true
	}
	return HomographMatch{}, false
}
