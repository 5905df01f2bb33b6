package core

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
