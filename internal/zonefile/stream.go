package zonefile

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/bits"
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
// A record line in the form Write emits, "owner IN TYPE data" in
// single spaces and printable ASCII, is read by canonical: one pass
// finds its fields' ends 8 bytes at a time, and the record is the
// line's own substrings. Every other line (directives, comments, tabs,
// TTL fields, bytes >= 0x80) is split by splitLine and read by
// parseRecord. Either way the owner is folded to lower case, and the
// type to upper case, only when a byte needs it: a zone written in
// canonical case makes no case-mapping call.
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

// Next advances to the following record, interpreting $ORIGIN and $TTL
// directives along the way. It returns false at end of input or on
// error; Err disambiguates.
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	for {
		if s.block == "" {
			if !s.sc.Scan() {
				break
			}
			s.block = s.sc.Text()
		}
		s.line++
		if s.canonical() {
			return true
		}
		lower, upperOwner := s.splitLine()
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
		rec, err := parseRecord(fields, lower, upperOwner)
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

// The classes of splitLine's pass. A field is a run of bytes below
// clsSep: clsLower and clsUpper mark the ASCII letters, 0 every other
// field byte. clsSep is strings.Fields' ASCII separators; clsStop ends
// the pass: the line's '\n', a ';' comment, or a byte >= 0x80.
const (
	clsLower = 1 << iota
	clsUpper
	clsSep
	clsStop
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = clsLower, clsUpper
	}
	for _, c := range "\t\v\f\r " {
		t[c] = clsSep
	}
	t['\n'], t[';'] = clsStop, clsStop
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = clsStop
	}
	return t
}()

// splitLine consumes the block's next line, framed as bufio.ScanLines
// frames it, and splits the line up to its first ';' into s.fields,
// slices of the block, exactly as strings.Fields splits. Bit i of lower
// is set when field i holds a lower-case ASCII letter, and upperOwner
// when the first field holds an upper-case one. A line with a byte
// >= 0x80 before its comment goes to strings.Fields itself, which knows
// the Unicode spaces (U+0085, U+00A0, U+2028, ...), and reports every
// bit set and upperOwner: its fields are case-mapped by the strings
// package.
func (s *Scanner) splitLine() (lower uint64, upperOwner bool) {
	b := s.block
	dst := s.fields[:0]
	i := 0
	for {
		for i < len(b) && byteClass[b[i]] == clsSep {
			i++
		}
		if i == len(b) || byteClass[b[i]] == clsStop {
			break
		}
		start := i
		var seen uint8
		for ; i < len(b); i++ {
			c := byteClass[b[i]]
			if c >= clsSep {
				break
			}
			seen |= c
		}
		if seen&clsLower != 0 {
			lower |= 1 << len(dst) // 0 past field 63, which no rule reads
		}
		if seen&clsUpper != 0 && len(dst) == 0 {
			upperOwner = true
		}
		dst = append(dst, b[start:i])
	}
	eol := len(b)
	if i < len(b) {
		if j := strings.IndexByte(b[i:], '\n'); j >= 0 {
			eol = i + j
		}
		if b[i] >= utf8.RuneSelf {
			line := b[:eol]
			if j := strings.IndexByte(line, ';'); j >= 0 {
				line = line[:j]
			}
			dst = append(dst[:0], strings.Fields(line)...)
			lower, upperOwner = ^uint64(0), true
		}
	}
	s.fields = dst
	if eol < len(b) {
		s.block = b[eol+1:]
	} else {
		s.block = ""
	}
	return lower, upperOwner
}

// The word-at-a-time tests of canonical's pass. Each looks at eight
// bytes of a line as one little-endian word and sets the high bit of
// every byte it flags.
const (
	lo8 = 0x0101010101010101
	hi8 = 0x8080808080808080
)

// load64 is the word of b at i, little-endian; the compiler merges the
// loads into one.
func load64(b string, i int) uint64 {
	b = b[i : i+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// stops flags the bytes of w that end a canonical field: a byte below
// 0x21 (the space, the line's '\n', every other control), a byte
// >= 0x80, and ';'. A subtraction's borrow can flag bytes above a
// flagged one falsely, so only the lowest flag is exact.
func stops(w uint64) uint64 {
	semi := w ^ lo8*';'
	return ((w - lo8*0x21) | w | (semi-lo8)&^semi) & hi8
}

// uppers flags the bytes 'A'-'Z' of w. A byte >= 0x80 carries into the
// bytes above it, so only the flags below w's lowest such byte count.
func uppers(w uint64) uint64 {
	return (w + lo8*(0x80-'A')) &^ (w + lo8*(0x80-'Z'-1)) & hi8
}

// isStop is stops for one byte.
func isStop(c byte) bool { return c <= ' ' || c >= utf8.RuneSelf || c == ';' }

// nextStop is the index of b's first stop byte at or after i, else
// len(b).
func nextStop(b string, i int) int {
	for ; i+8 <= len(b); i += 8 {
		if m := stops(load64(b, i)); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(b) && !isStop(b[i]); i++ {
	}
	return i
}

// ownerEnd is nextStop(b, 0), and whether b's bytes before it hold an
// upper-case letter, found in the same pass.
func ownerEnd(b string) (int, bool) {
	var upper uint64
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := load64(b, i)
		if m := stops(w); m != 0 {
			k := bits.TrailingZeros64(m) &^ 7 // the stop byte's first bit
			return i + k>>3, upper|uppers(w)&(1<<k-1) != 0
		}
		upper |= uppers(w)
	}
	for ; i < len(b) && !isStop(b[i]); i++ {
		if 'A' <= b[i] && b[i] <= 'Z' {
			upper = 1
		}
	}
	return i, upper != 0
}

// canonical reads the block's next line as a record when it is written
// in the canonical form Write emits, "owner IN TYPE data": fields split
// by single spaces, every byte in 0x21-0x7f but ';', no '$' first and
// no lower-case letter in the type. strings.Fields, parseRecord and the
// case rules read such a line as its plain substrings, so the record is
// taken from them without splitting or classifying the line, and the
// owner is lowered only when it holds an upper-case letter. Any other
// line is left unread for splitLine, and canonical reports false.
func (s *Scanner) canonical() bool {
	b := s.block
	if b == "" || b[0] == '$' {
		return false
	}
	i, upper := ownerEnd(b)
	if i == 0 || len(b) < i+4 || b[i:i+4] != " IN " {
		return false
	}
	t := i + 4 // the type
	d := nextStop(b, t)
	if d == t || d == len(b) || b[d] != ' ' {
		return false
	}
	for j := t; j < d; j++ {
		if 'a' <= b[j] && b[j] <= 'z' {
			return false
		}
	}
	// The data: one field or more, one space between each two.
	end := d
	for {
		if end++; end == len(b) || isStop(b[end]) {
			return false // an empty field
		}
		end = nextStop(b, end)
		if end == len(b) || b[end] == '\n' {
			break
		}
		if b[end] != ' ' {
			return false
		}
	}
	owner := b[:i]
	if upper {
		owner = strings.ToLower(owner)
	}
	// Field by field, here and in Record: a struct copy moves 16 bytes
	// at a time, and a 16-byte load of two 8-byte stores just made
	// waits for them to reach the cache (~10% of ParseDelta's time).
	s.rec.Owner, s.rec.TTL, s.rec.Type, s.rec.Data = owner, 0, b[t:d], b[d+1:end]
	if end < len(b) {
		s.block = b[end+1:]
	} else {
		s.block = ""
	}
	return true
}

// Record returns the record produced by the last successful Next.
func (s *Scanner) Record() Record {
	return Record{Owner: s.rec.Owner, TTL: s.rec.TTL, Type: s.rec.Type, Data: s.rec.Data}
}

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
// SLD (ACE form) in encounter order, feeding streaming pipelines; the
// returned counts equal Parse(r)'s Partition for single-$ORIGIN zones,
// and the names emitted are its IDNs.
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
			st.IDNCount++
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
	return st, nil
}
