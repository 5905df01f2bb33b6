package zonefile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestScannerWalksRecords(t *testing.T) {
	s := NewScanner(strings.NewReader(sampleZone))
	var n int
	for s.Next() {
		n++
		rec := s.Record()
		if rec.Owner == "" || rec.Type == "" || rec.Data == "" {
			t.Fatalf("record %d incomplete: %+v", n, rec)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	z, err := Parse(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(z.Records) {
		t.Fatalf("scanner saw %d records, Parse saw %d", n, len(z.Records))
	}
	if s.Origin() != z.Origin {
		t.Fatalf("origin %q vs %q", s.Origin(), z.Origin)
	}
	if s.DefaultTTL() != z.DefaultTTL {
		t.Fatalf("ttl %d vs %d", s.DefaultTTL(), z.DefaultTTL)
	}
}

func TestScannerSyntaxError(t *testing.T) {
	s := NewScanner(strings.NewReader("$ORIGIN com.\nbroken\n"))
	for s.Next() {
	}
	if !errors.Is(s.Err(), ErrSyntax) {
		t.Fatalf("err = %v, want ErrSyntax", s.Err())
	}
	if s.Next() {
		t.Fatal("Next after error returned true")
	}
}

// TestScannerCase pins what the case bits decide: the owner is lowered
// and the type raised whatever case the line is written in, "IN" is
// matched in any case, data keeps its case, and a line with a byte
// >= 0x80 is folded by the strings package (Unicode lower case).
func TestScannerCase(t *testing.T) {
	text := "$ORIGIN COM.\n" +
		"Example IN NS ns1.Host.NET.\n" +
		"EXAMPLE 300 In Ns ns2.host.net.\r\n" +
		"mixed\tin\tns\ta b ; Comment\n" +
		"\u00c9COLE iN nS x\u00a0y\n" +
		"plain IN NS ns1.dns-host.net.\n"
	want := []Record{
		{Owner: "example", Type: "NS", Data: "ns1.Host.NET."},
		{Owner: "example", TTL: 300, Type: "NS", Data: "ns2.host.net."},
		{Owner: "mixed", Type: "NS", Data: "a b"},
		{Owner: "\u00e9cole", Type: "NS", Data: "x y"},
		{Owner: "plain", Type: "NS", Data: "ns1.dns-host.net."},
	}
	s := NewScanner(strings.NewReader(text))
	var got []Record
	for s.Next() {
		got = append(got, s.Record())
		if s.Origin() != "com" {
			t.Fatalf("Origin() = %q, want com", s.Origin())
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records:\n got %+v\nwant %+v", got, want)
	}
}

// TestScanStreamEquivalence pins ScanStream == Scan(Parse) on zones that
// exercise every owner shape: relative, absolute, glue, out-of-zone,
// duplicates, IDNs, and records preceding $ORIGIN.
func TestScanStreamEquivalence(t *testing.T) {
	zones := []string{
		sampleZone,
		"$ORIGIN com.\n",
		"$ORIGIN com.\nxn--pple-43d IN NS ns1.example.\nexample IN NS ns1.example.\n" +
			"example IN NS ns2.example.\nns1.example IN A 1.2.3.4\n" +
			"other.net. IN NS ns1.example.\nxn--pple-43d.com. IN DS 1234\n",
		// Records before $ORIGIN: Parse resolves them with the final
		// origin; the stream must buffer and agree.
		"xn--fiq228c IN NS ns1.example.\n$ORIGIN net.\nplain IN NS ns1.example.\n",
		// iTLD origin: every SLD is an IDN by construction.
		"$ORIGIN xn--fiqs8s.\nabc IN NS ns1.example.\nxn--55qx5d IN NS ns2.example.\n",
		// $ORIGIN after the last record: held owners flush at EOF.
		"xn--pple-43d IN NS ns1.example.\n$ORIGIN com.\n",
	}
	for i, text := range zones {
		z, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("zone %d: %v", i, err)
		}
		want := Scan(z)
		idns, _ := z.Partition()
		got, emitted, err := scanNames(text)
		if err != nil {
			t.Fatalf("zone %d: ScanStream: %v", i, err)
		}
		if got != want {
			t.Errorf("zone %d: ScanStream = %+v, Scan = %+v", i, got, want)
		}
		if !reflect.DeepEqual(emitted, idns) {
			t.Errorf("zone %d: emitted %v, want %v", i, emitted, idns)
		}
	}
}

func TestScanStreamNoOrigin(t *testing.T) {
	if _, err := ScanStream(context.Background(), strings.NewReader("a IN NS b.\n"), nil); !errors.Is(err, ErrNoOrigin) {
		t.Fatalf("err = %v, want ErrNoOrigin", err)
	}
	if _, err := ScanStream(context.Background(), strings.NewReader(""), nil); !errors.Is(err, ErrNoOrigin) {
		t.Fatalf("empty input err = %v, want ErrNoOrigin", err)
	}
}

func TestScanStreamCancellation(t *testing.T) {
	// A zone big enough to cross several cancel-poll intervals.
	var sb strings.Builder
	sb.WriteString("$ORIGIN com.\n")
	for i := 0; i < 4*cancelCheckInterval; i++ {
		fmt.Fprintf(&sb, "d%06d IN NS ns1.example.\n", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScanStream(ctx, strings.NewReader(sb.String()), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScanStreamEmitError(t *testing.T) {
	boom := errors.New("boom")
	text := "$ORIGIN com.\nxn--pple-43d IN NS ns1.example.\n"
	_, err := ScanStream(context.Background(), strings.NewReader(text), func(string) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

// TestScanStreamMemoryShape is a coarse guard that the stream does not
// accumulate records: a zone with many records per owner must keep the
// seen-set at the distinct-SLD count.
func TestScanStreamCollapsesDuplicates(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN org.\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "shared IN NS ns%d.example.\n", i)
	}
	st, err := ScanStream(context.Background(), strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SLDCount != 1 {
		t.Fatalf("SLDCount = %d, want 1", st.SLDCount)
	}
}

// TestScanStreamAllocs pins what a scan allocates: the scanner's
// buffers, the seen-set's growth (~90 allocations at 10,000 keys), a
// chunk of labels per 64 KiB and one string per IDN emitted; nothing
// per record or per distinct SLD. Each
// zone has 10,000 delegations: largeZone's 5 owners, 10,000 distinct
// ASCII owners, and 10,000 distinct IDN owners with every name emitted.
func TestScanStreamAllocs(t *testing.T) {
	var distinct, idn strings.Builder
	distinct.WriteString("$ORIGIN com.\n")
	idn.WriteString("$ORIGIN com.\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&distinct, "name%d IN NS ns1.example.net.\n", i)
		fmt.Fprintf(&idn, "xn--%d-43d IN NS ns1.example.net.\n", i)
	}
	for _, tc := range []struct {
		name, zone string
		emits      int
		max        float64
	}{
		{"largeZone", largeZone(), 0, 16},
		{"distinct", distinct.String(), 0, 128},
		{"idn", idn.String(), 10000, 10000 + 128},
	} {
		emits := 0
		emit := func(string) error { emits++; return nil }
		allocs := testing.AllocsPerRun(5, func() {
			emits = 0
			if _, err := ScanStream(context.Background(), strings.NewReader(tc.zone), emit); err != nil {
				t.Fatal(err)
			}
		})
		if emits != tc.emits {
			t.Fatalf("%s: %d names emitted, want %d", tc.name, emits, tc.emits)
		}
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations per scan, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// FuzzScanStream cross-checks the streaming scan against the
// materialized one on arbitrary inputs, via the canonical Write form
// (single leading $ORIGIN, where the two are contractually identical).
func FuzzScanStream(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN com.\nxn--pple-43d IN NS ns1.example.\n")
	f.Add("$ORIGIN xn--fiqs8s.\nabc IN NS ns.\n")
	f.Add("$ORIGIN co.xn--fiqs8s.\nabc IN NS ns.\nabc IN NS ns2.\nxn--pple-43d IN NS ns.\n")
	f.Add("$ORIGIN com.\na.b IN A 1.2.3.4\nb IN NS ns.\nxn--pple-43d.com. IN NS ns.\nother.net. IN NS ns.\n")
	f.Fuzz(func(t *testing.T, input string) {
		z, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := z.Write(&buf); err != nil {
			t.Fatal(err)
		}
		canonical := buf.String()
		want := Scan(z)
		idns, _ := z.Partition()
		got, emitted, err := scanNames(canonical)
		if err != nil {
			t.Fatalf("ScanStream failed on canonical zone: %v\n%s", err, canonical)
		}
		if got != want || !reflect.DeepEqual(emitted, idns) {
			t.Fatalf("ScanStream = %+v emitting %v, Scan = %+v with %v\n%s", got, emitted, want, idns, canonical)
		}
	})
}
