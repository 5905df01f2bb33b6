package zonefile

import "sort"

// SLDs returns the distinct second-level domains delegated by the zone
// ("<label>.<origin>"), sorted. Multi-label owners (glue like
// ns1.example) contribute their top label only; absolute owner names
// outside the origin are ignored.
func (z *Zone) SLDs() []string {
	out := z.distinctSLDs()
	sort.Strings(out)
	return out
}

// Scan extracts the SLD population and the IDN subset from a parsed
// zone: the reference ScanStream is pinned to.
func Scan(z *Zone) ScanStats {
	idns, others := z.Partition()
	return ScanStats{Origin: z.Origin, SLDCount: len(idns) + len(others), IDNs: idns}
}
