// Package zonefile reads and writes the subset of the DNS master-file
// format (RFC 1035 §5) that TLD zone files use, and scans zones for
// second-level domains. This is the ingestion path of the whole study: the
// paper extracted 1.47M IDNs by scanning 154M SLDs across the com, net and
// org zones plus 53 iTLD zones, matching the "xn--" ACE prefix.
package zonefile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"idnlab/internal/idna"
)

// Record is one resource record of a zone.
type Record struct {
	// Owner is the owner name relative to the zone origin (no trailing
	// dot), e.g. "example" in the com zone.
	Owner string
	// TTL is the time-to-live in seconds; 0 means "use the zone default".
	TTL uint32
	// Type is the RR type mnemonic (NS, A, AAAA, DS...).
	Type string
	// Data is the record payload, e.g. the name-server target.
	Data string
}

// Zone is a parsed TLD zone.
type Zone struct {
	// Origin is the zone apex without the trailing dot, e.g. "com" or
	// "xn--fiqs8s".
	Origin string
	// DefaultTTL is the $TTL directive value.
	DefaultTTL uint32
	// Records holds the resource records in file order.
	Records []Record
}

// Errors returned by Parse.
var (
	// ErrNoOrigin reports a zone file without an $ORIGIN directive.
	ErrNoOrigin = errors.New("zonefile: missing $ORIGIN directive")
	// ErrSyntax reports a malformed line.
	ErrSyntax = errors.New("zonefile: syntax error")
)

// Parse reads a zone from r. Supported syntax: $ORIGIN and $TTL
// directives, ';' comments, blank lines, and records of the form
// "owner [ttl] [IN] type data...". Owner names may be absolute (trailing
// dot) or relative to the origin. The zone's Origin and DefaultTTL are
// the last values the file sets.
func Parse(r io.Reader) (*Zone, error) {
	z := &Zone{}
	s := NewScanner(r)
	for s.Next() {
		z.Records = append(z.Records, s.Record())
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	z.Origin, z.DefaultTTL = s.Origin(), s.DefaultTTL()
	if z.Origin == "" {
		return nil, ErrNoOrigin
	}
	return z, nil
}

// parseRecord interprets "owner [ttl] [IN] type data...". Only an
// all-digit second field is tried as a TTL, so an owner-first record
// costs no failed strconv call.
func parseRecord(fields []string) (Record, error) {
	if len(fields) < 3 {
		return Record{}, errors.New("record needs owner, type and data")
	}
	rec := Record{Owner: strings.ToLower(fields[0])}
	i := 1
	if isDigits(fields[i]) {
		if ttl, err := strconv.ParseUint(fields[i], 10, 32); err == nil {
			rec.TTL = uint32(ttl)
			i++
		}
	}
	if i < len(fields) && strings.EqualFold(fields[i], "IN") {
		i++
	}
	if i >= len(fields) {
		return Record{}, errors.New("record missing type")
	}
	rec.Type = strings.ToUpper(fields[i])
	i++
	if i >= len(fields) {
		return Record{}, errors.New("record missing data")
	}
	rec.Data = strings.Join(fields[i:], " ")
	return rec, nil
}

// isDigits reports whether s is a non-empty run of ASCII digits, the
// only strings strconv.ParseUint accepts in base 10.
func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// Write serializes the zone in canonical form: $ORIGIN, $TTL, then records
// in file order.
func (z *Zone) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "$ORIGIN %s.\n", z.Origin); err != nil {
		return fmt.Errorf("zonefile: write: %w", err)
	}
	if z.DefaultTTL > 0 {
		if _, err := fmt.Fprintf(bw, "$TTL %d\n", z.DefaultTTL); err != nil {
			return fmt.Errorf("zonefile: write: %w", err)
		}
	}
	for _, rec := range z.Records {
		var err error
		if rec.TTL > 0 {
			_, err = fmt.Fprintf(bw, "%s %d IN %s %s\n", rec.Owner, rec.TTL, rec.Type, rec.Data)
		} else {
			_, err = fmt.Fprintf(bw, "%s IN %s %s\n", rec.Owner, rec.Type, rec.Data)
		}
		if err != nil {
			return fmt.Errorf("zonefile: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("zonefile: flush: %w", err)
	}
	return nil
}

// distinctSLDs is the one walk over the records: the distinct SLD names
// in first-occurrence order.
func (z *Zone) distinctSLDs() []string {
	// A delegation is usually two or more consecutive records of one
	// owner; only the first pays for the set.
	seen := make(map[string]struct{}, len(z.Records)/2)
	out := make([]string, 0, len(z.Records)/2)
	for i := range z.Records {
		owner := z.Records[i].Owner
		if i > 0 && owner == z.Records[i-1].Owner {
			continue
		}
		label, ok := z.sldLabel(owner)
		if !ok {
			continue
		}
		if _, dup := seen[label]; dup {
			continue
		}
		seen[label] = struct{}{}
		out = append(out, label+"."+z.Origin)
	}
	return out
}

// Partition splits the zone's distinct SLDs into the IDNs — the paper's
// discovery step ("we searched substring xn-- in TLDs"); in an iTLD zone
// (IDN origin) every SLD is one by construction — and the rest, each
// sorted.
func (z *Zone) Partition() (idns, others []string) {
	itld := idna.IsACELabel(z.Origin)
	for _, d := range z.distinctSLDs() {
		if itld || idna.IsIDN(d) {
			idns = append(idns, d)
		} else {
			others = append(others, d)
		}
	}
	sort.Strings(idns)
	sort.Strings(others)
	return idns, others
}

// sldLabel extracts the delegated label from an owner name.
func (z *Zone) sldLabel(owner string) (string, bool) {
	return sldLabel(z.Origin, owner)
}

// sldLabel extracts the delegated label from an owner name relative to
// origin — shared by the materialized (Zone.SLDs) and streaming
// (ScanStream) paths.
func sldLabel(origin, owner string) (string, bool) {
	if owner == "" || owner == "@" {
		return "", false
	}
	if strings.HasSuffix(owner, ".") {
		// Absolute: must end with ".<origin>."
		trimmed := strings.TrimSuffix(owner, ".")
		suffix := "." + origin
		if !strings.HasSuffix(trimmed, suffix) {
			return "", false
		}
		trimmed = strings.TrimSuffix(trimmed, suffix)
		if trimmed == "" {
			return "", false
		}
		owner = trimmed
	}
	// Relative, possibly multi-label (glue): keep the label closest to
	// the origin.
	if i := strings.LastIndexByte(owner, '.'); i >= 0 {
		owner = owner[i+1:]
	}
	if owner == "" {
		return "", false
	}
	return owner, true
}

// ScanStats summarizes one zone scan — a row of the paper's Table I.
type ScanStats struct {
	// Origin is the zone scanned.
	Origin string
	// SLDCount is the number of distinct delegated SLDs.
	SLDCount int
	// IDNs holds the discovered IDN SLDs (ACE form), sorted.
	IDNs []string
}
