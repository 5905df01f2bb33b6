package zonefile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParse ensures the parser never panics and that every successfully
// parsed zone survives a write/parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN com.\n")
	f.Add("$ORIGIN com.\n$TTL 60\nx IN NS y.\n")
	f.Add("; only a comment\n")
	f.Add("$TTL\n")
	f.Add("$ORIGIN a.\nb 4294967295 IN A 1.2.3.4\n")
	f.Fuzz(func(t *testing.T, input string) {
		z, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := z.Write(&buf); err != nil {
			t.Fatalf("parsed zone cannot be written: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, buf.String())
		}
		if back.Origin != z.Origin || len(back.Records) != len(z.Records) {
			t.Fatalf("round trip changed shape: %d vs %d records", len(back.Records), len(z.Records))
		}
		_ = Scan(z) // must not panic on any parsed zone
	})
}

// oracleStep is one observation of a scan: a record with the directives
// in effect and the line it came from, or the scan's final error.
type oracleStep struct {
	Rec    Record
	Origin string
	TTL    uint32
	Line   int
	Err    string
}

// oracleScan is the line-at-a-time reader Scanner replaced, kept as the
// reference: bufio.ScanLines framing, strings.Fields splitting, and
// every second field tried as a TTL.
func oracleScan(input string) []oracleStep {
	var out []oracleStep
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	origin, ttl, lineNo := "", uint32(0), 0
	fail := func(err error) []oracleStep {
		return append(out, oracleStep{Err: err.Error()})
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "$ORIGIN":
			if len(fields) != 2 {
				return fail(fmt.Errorf("%w: line %d: $ORIGIN wants one argument", ErrSyntax, lineNo))
			}
			origin = strings.TrimSuffix(strings.ToLower(fields[1]), ".")
			continue
		case "$TTL":
			if len(fields) != 2 {
				return fail(fmt.Errorf("%w: line %d: $TTL wants one argument", ErrSyntax, lineNo))
			}
			n, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return fail(fmt.Errorf("%w: line %d: bad TTL %q", ErrSyntax, lineNo, fields[1]))
			}
			ttl = uint32(n)
			continue
		}
		rec, err := oracleRecord(fields)
		if err != nil {
			return fail(fmt.Errorf("%w: line %d: %v", ErrSyntax, lineNo, err))
		}
		out = append(out, oracleStep{Rec: rec, Origin: origin, TTL: ttl, Line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return fail(fmt.Errorf("zonefile: read: %w", err))
	}
	return out
}

func oracleRecord(fields []string) (Record, error) {
	if len(fields) < 3 {
		return Record{}, errors.New("record needs owner, type and data")
	}
	rec := Record{Owner: strings.ToLower(fields[0])}
	i := 1
	if ttl, err := strconv.ParseUint(fields[i], 10, 32); err == nil {
		rec.TTL = uint32(ttl)
		i++
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

// scannerSteps is oracleScan's observation of the real Scanner.
func scannerSteps(r io.Reader) []oracleStep {
	var out []oracleStep
	s := NewScanner(r)
	for s.Next() {
		out = append(out, oracleStep{Rec: s.Record(), Origin: s.Origin(), TTL: s.DefaultTTL(), Line: s.line})
	}
	if err := s.Err(); err != nil {
		out = append(out, oracleStep{Err: err.Error()})
	}
	return out
}

// FuzzScannerFields is the differential for Scanner's block framing and
// in-place field split: every record, the $ORIGIN/$TTL in effect, the
// line number and the error text must equal the strings.Fields-based
// oracle's, whether the input arrives whole or a byte per read.
func FuzzScannerFields(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN com.\n$TTL 60\nx\tIN\tNS\ty.\r\nz 300 in ns w. ; note\n")
	f.Add("$ORIGIN com.\nx IN NS a\u0085b\nx\u00a0IN NS y.\nq IN NS r\u2028s\n")
	f.Add("$ORIGIN a.\n123 IN A 1.2.3.4\n456 4294967296 IN A 1.2.3.4\nb 4294967295 NS c.\n")
	f.Add("$ORIGIN a.\n\n;\n  \t \nb \v IN\fNS c.\nbroken\n")
	f.Add("$TTL x\n")
	f.Add("$ORIGIN\n")
	f.Add("$ORIGIN a.\nb IN NS c.\r\r\nlast IN NS d.")
	f.Add("\xff\xfe IN NS x.\n$ORIGIN \xc3\xa9.\n")
	// The edges of the canonical-record path.
	f.Add("$ORIGIN com.\na IN NS b.\nc  IN NS d.\n")
	f.Add("$ORIGIN com.\na IN NS  b.\n")
	f.Add("$ORIGIN com.\n a IN NS b.\n")
	f.Add("$ORIGIN com.\na IN NS b.\n$ORIGIN net.\nc IN NS d.\n$TTL 60\n")
	f.Add("$ORIGIN com.\na IN NS \nb IN NS c.\n")
	f.Add("$ORIGIN com.\na IN NS\n")
	f.Add("$ORIGIN com.\na\n")
	f.Add("$ORIGIN com.\nA IN NS b.\nc IN ns d.\ne in NS f.\ng IN NS h. i\nj IN NS k;l\nm IN NS n.\x7f\no 300 IN NS p.")
	f.Fuzz(func(t *testing.T, input string) {
		want := oracleScan(input)
		if got := scannerSteps(strings.NewReader(input)); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scanner diverges from the strings.Fields oracle on %q:\n got %+v\nwant %+v", input, got, want)
		}
		if got := scannerSteps(iotest.OneByteReader(strings.NewReader(input))); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scanner diverges from the oracle one byte per read on %q:\n got %+v\nwant %+v", input, got, want)
		}
	})
}

// FuzzScannerRecords aims the oracle at the record rules rather than the
// framing: each input is one record line assembled from fuzzed owner,
// TTL, class, type and data fields and a separator, so the fuzzer spends
// its time on case (owner, "IN", type), TTL shapes, one- and many-field
// data, tabs, CRLF, comments and bytes >= 0x80, where the scanner's
// fold-only-when-needed paths live. Record, Origin and the error text
// must equal the strings.Fields / ToLower / ToUpper / EqualFold / Join
// oracle's, whole and one byte per read.
func FuzzScannerRecords(f *testing.F) {
	f.Add("Example", "300", "In", "ns", "ns1.Host.NET.", " ", uint8(0))
	f.Add("xn--pple-43d", "", "IN", "NS", "ns1.dns-host.net.", " ", uint8(0))
	f.Add("MiXeD", "", "in", "Ns", "a b\tc", "\t", uint8(1))
	f.Add("\u00c9cole", "60", "", "soa", "a. b. 1 2 3 4 5", "  ", uint8(2))
	f.Add("own", "4294967296", "IN", "txt", "\u00a0x", " ", uint8(3))
	f.Add("@", "007", "IN", "\u0130n", "x", "\v", uint8(4))
	f.Add("K", "", "\u212an", "a", "x ; y", " ", uint8(0))
	// The edges of the canonical-record path.
	f.Add("a", "", "IN", "NS", "b.", "  ", uint8(0))
	f.Add("a", "", "IN", "NS", " b.", " ", uint8(0))
	f.Add(" lead", "", "IN", "NS", "b.", " ", uint8(0))
	f.Add("$ORIGIN", "", "IN", "NS", "b.", " ", uint8(0))
	f.Add("$ORIGIN", "", "", "", "net.", " ", uint8(0))
	f.Add("a", "", "IN", "NS", "", " ", uint8(0))
	f.Add("a", "", "IN", "NS", " ", " ", uint8(3))
	f.Add("a", "", "", "", "", " ", uint8(0))
	f.Add("UPPER", "", "IN", "SOA", "a. b. 1 2 3 4 5", " ", uint8(3))
	f.Fuzz(func(t *testing.T, owner, ttl, class, typ, data, sep string, end uint8) {
		line := owner
		for _, field := range []string{ttl, class, typ, data} {
			if field != "" {
				line += sep + field
			}
		}
		line += []string{"\n", "\r\n", " ; comment\n", "", ";\u00ff\n"}[int(end)%5]
		input := "$ORIGIN Com.\n" + line + line
		want := oracleScan(input)
		if got := scannerSteps(strings.NewReader(input)); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scanner diverges from the oracle on %q:\n got %+v\nwant %+v", input, got, want)
		}
		if got := scannerSteps(iotest.OneByteReader(strings.NewReader(input))); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scanner diverges from the oracle one byte per read on %q:\n got %+v\nwant %+v", input, got, want)
		}
	})
}

// TestScannerLongLinesMatchOracle pins the one limit the fuzzer cannot
// reach: lines around bufio's 1 MiB token cap, with and without a
// final newline, fail (or not) exactly where the oracle does.
func TestScannerLongLinesMatchOracle(t *testing.T) {
	const limit = 1024 * 1024
	tooLong := 0
	for _, n := range []int{limit - 2, limit - 1, limit, limit + 1} {
		long := "x IN TXT " + strings.Repeat("a", n-len("x IN TXT "))
		for _, input := range []string{
			"$ORIGIN a.\n" + long + "\nb IN NS c.\n",
			"$ORIGIN a.\n" + long,
			strings.Repeat("b IN NS c.\n", 7000) + long + "\n",
		} {
			want := oracleScan(input)
			if got := scannerSteps(strings.NewReader(input)); !reflect.DeepEqual(got, want) {
				t.Fatalf("line of %d bytes: %d steps (last %+v), oracle %d (last %+v)",
					n, len(got), got[len(got)-1].Err, len(want), want[len(want)-1].Err)
			}
			if strings.Contains(want[len(want)-1].Err, "too long") {
				tooLong++
			}
		}
	}
	if tooLong == 0 {
		t.Fatal("no input reached the token cap; the boundary is untested")
	}
}
