package zonefile

import (
	"context"
	"sort"
	"strings"
)

// SLDs returns the distinct second-level domains delegated by the zone
// ("<label>.<origin>"), sorted. Multi-label owners (glue like
// ns1.example) contribute their top label only; absolute owner names
// outside the origin are ignored.
func (z *Zone) SLDs() []string {
	out := z.distinctSLDs()
	sort.Strings(out)
	return out
}

// Scan counts the SLD population and the IDN subset of a parsed zone:
// the reference ScanStream is pinned to.
func Scan(z *Zone) ScanStats {
	idns, others := z.Partition()
	return ScanStats{Origin: z.Origin, SLDCount: len(idns) + len(others), IDNCount: len(idns)}
}

// scanNames runs ScanStream over text and returns its stats and the IDN
// names it emitted, sorted.
func scanNames(text string) (ScanStats, []string, error) {
	var names []string
	st, err := ScanStream(context.Background(), strings.NewReader(text), func(d string) error {
		names = append(names, d)
		return nil
	})
	sort.Strings(names)
	return st, names, err
}
