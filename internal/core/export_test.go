package core

import (
	"unicode/utf8"

	"idnlab/internal/candidx"
)

// The sequential corpus scans: the reference the streaming engines
// (ScanHomograph, ScanSemantic) and the detector clones are compared
// against.

// Detect scans a domain corpus and returns all homographic matches, sorted
// by brand then domain.
func (d *HomographDetector) Detect(domains []string) []HomographMatch {
	var out []HomographMatch
	for _, domain := range domains {
		if m, ok := d.DetectOne(domain); ok {
			out = append(out, m)
		}
	}
	sortHomographMatches(out)
	return out
}

// Detect scans a corpus for Type-1 semantic IDNs.
func (d *SemanticDetector) Detect(domains []string) []SemanticMatch {
	var out []SemanticMatch
	for _, domain := range domains {
		if m, ok := d.DetectOne(domain); ok {
			out = append(out, m)
		}
	}
	sortSemanticMatches(out)
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
