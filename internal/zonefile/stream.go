package zonefile

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"idnlab/internal/idna"
)

// Streaming ingestion. Parse materializes every record of a zone before
// anything can be scanned — fine for the synthetic fixtures, fatal for
// real TLD snapshots (the paper scanned 154M SLDs across com/net/org).
// Scanner walks a zone record by record with O(1) memory, and ScanStream
// runs the SLD/IDN discovery on top of it holding only the set of
// distinct SLD names — records, glue and payloads are never resident.

// Scanner reads a zone incrementally. Typical use:
//
//	s := zonefile.NewScanner(r)
//	for s.Next() {
//	    rec := s.Record()
//	    ...
//	}
//	if err := s.Err(); err != nil { ... }
//
// Unlike Parse, which applies the zone's final $ORIGIN to every record,
// Scanner interprets directives positionally: Origin reports the value
// in effect at the current record (the streaming-correct reading; the
// two agree on any zone in canonical Write form, where $ORIGIN leads).
//
// A Record's strings are slices of one string per read buffer (every
// complete line the buffer holds), so the scan allocates per block of
// input, not per line or field; a record kept alive keeps its block.
type Scanner struct {
	sc     *bufio.Scanner
	block  string   // complete lines of the current read not yet consumed
	fields []string // the current line's fields, reused across lines
	origin string
	ttl    uint32
	rec    Record
	line   int
	err    error
}

// NewScanner builds a streaming reader over a master-format zone.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	sc.Split(scanLineBlocks)
	return &Scanner{sc: sc}
}

// scanLineBlocks is a bufio.SplitFunc returning every complete line in
// the buffer as one token (the final line may lack its newline). A
// line still has to fit the buffer whole, so the too-long limit and
// its error are bufio.ScanLines'.
func scanLineBlocks(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// nextLine returns the following line with bufio.ScanLines' framing:
// split at '\n', one trailing '\r' dropped.
func (s *Scanner) nextLine() (string, bool) {
	if s.block == "" {
		if !s.sc.Scan() {
			return "", false
		}
		s.block = s.sc.Text()
	}
	line, rest, _ := strings.Cut(s.block, "\n")
	s.block = rest
	return strings.TrimSuffix(line, "\r"), true
}

// Next advances to the following record, interpreting $ORIGIN and $TTL
// directives along the way. It returns false at end of input or on
// error; Err disambiguates.
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	for {
		line, ok := s.nextLine()
		if !ok {
			break
		}
		s.line++
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		s.fields = fieldsInto(s.fields, line)
		fields := s.fields
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "$ORIGIN":
			if len(fields) != 2 {
				s.err = fmt.Errorf("%w: line %d: $ORIGIN wants one argument", ErrSyntax, s.line)
				return false
			}
			s.origin = strings.TrimSuffix(strings.ToLower(fields[1]), ".")
			continue
		case "$TTL":
			if len(fields) != 2 {
				s.err = fmt.Errorf("%w: line %d: $TTL wants one argument", ErrSyntax, s.line)
				return false
			}
			ttl, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				s.err = fmt.Errorf("%w: line %d: bad TTL %q", ErrSyntax, s.line, fields[1])
				return false
			}
			s.ttl = uint32(ttl)
			continue
		}
		rec, err := parseRecord(fields)
		if err != nil {
			s.err = fmt.Errorf("%w: line %d: %v", ErrSyntax, s.line, err)
			return false
		}
		s.rec = rec
		return true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("zonefile: read: %w", err)
	}
	return false
}

// asciiSpace is strings.Fields' separator set below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fieldsInto returns line's whitespace-separated fields, slices of
// line held in buf's storage, split exactly as strings.Fields splits. A
// line with any byte >= 0x80 goes to strings.Fields itself, which knows
// the Unicode spaces (U+0085, U+00A0, U+2028, ...).
func fieldsInto(buf []string, line string) []string {
	dst := buf[:0]
	start := -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(buf[:0], strings.Fields(line)...)
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// Record returns the record produced by the last successful Next.
func (s *Scanner) Record() Record { return s.rec }

// Origin returns the zone origin in effect ("" until an $ORIGIN
// directive has been read).
func (s *Scanner) Origin() string { return s.origin }

// DefaultTTL returns the $TTL value in effect.
func (s *Scanner) DefaultTTL() uint32 { return s.ttl }

// Err returns the first error encountered, if any.
func (s *Scanner) Err() error { return s.err }

// cancelCheckInterval is how many records ScanStream processes between
// context polls.
const cancelCheckInterval = 512

// ScanStream runs the discovery scan (distinct SLDs, IDN subset — the
// paper's "searched substring xn-- in TLDs" step) over a zone without
// materializing its records. Memory is O(distinct SLDs), not O(records):
// glue, payloads and duplicate owners are folded away as the stream
// passes. If emit is non-nil it is called once per newly discovered IDN
// SLD in encounter order, feeding streaming pipelines; the returned
// ScanStats equals Parse(r)'s Partition for single-$ORIGIN zones (IDNs
// sorted).
//
// ctx cancellation aborts the scan between records with ctx.Err().
func ScanStream(ctx context.Context, r io.Reader, emit func(domain string) error) (ScanStats, error) {
	s := NewScanner(r)
	seen := make(map[string]struct{})
	// Owners read before the $ORIGIN directive cannot be resolved to
	// SLD names yet; hold the owners (only) until the origin appears.
	var preOrigin []string
	var st ScanStats
	itld := false

	flush := func(owner string) error {
		label, ok := sldLabel(st.Origin, owner)
		if !ok {
			return nil
		}
		name := label + "." + st.Origin
		if _, dup := seen[name]; dup {
			return nil
		}
		seen[name] = struct{}{}
		if itld || idna.IsIDN(name) {
			st.IDNs = append(st.IDNs, name)
			if emit != nil {
				return emit(name)
			}
		}
		return nil
	}

	n := 0
	for s.Next() {
		n++
		if n%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return ScanStats{}, err
			}
		}
		owner := s.Record().Owner
		if s.Origin() == "" {
			preOrigin = append(preOrigin, owner)
			continue
		}
		if st.Origin == "" {
			st.Origin = s.Origin()
			itld = idna.IsACELabel(st.Origin)
			for _, o := range preOrigin {
				if err := flush(o); err != nil {
					return ScanStats{}, err
				}
			}
			preOrigin = nil
		}
		if err := flush(owner); err != nil {
			return ScanStats{}, err
		}
	}
	if err := s.Err(); err != nil {
		return ScanStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return ScanStats{}, err
	}
	if s.Origin() == "" {
		return ScanStats{}, ErrNoOrigin
	}
	if st.Origin == "" {
		// The $ORIGIN directive arrived after the last record (or the
		// zone has no records): resolve any held owners against it.
		st.Origin = s.Origin()
		itld = idna.IsACELabel(st.Origin)
		for _, o := range preOrigin {
			if err := flush(o); err != nil {
				return ScanStats{}, err
			}
		}
	}
	st.SLDCount = len(seen)
	sort.Strings(st.IDNs)
	return st, nil
}
