package zonefile

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

const sampleZone = `; com zone snapshot (test fixture)
$ORIGIN com.
$TTL 86400
example IN NS ns1.example-dns.net.
example IN NS ns2.example-dns.net.
xn--0wwy37b IN NS ns1.parking.com.
another 3600 IN NS ns.other.net.
ns1.glued IN A 192.0.2.1
glued IN NS ns1.glued
absolute.com. IN NS ns9.example.
outside.org. IN NS ns1.ignored.
`

func TestParseSample(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "com" {
		t.Errorf("Origin = %q", z.Origin)
	}
	if z.DefaultTTL != 86400 {
		t.Errorf("DefaultTTL = %d", z.DefaultTTL)
	}
	if len(z.Records) != 8 {
		t.Fatalf("record count = %d, want 8", len(z.Records))
	}
	if z.Records[3].TTL != 3600 {
		t.Errorf("explicit TTL not parsed: %+v", z.Records[3])
	}
	if z.Records[4].Type != "A" || z.Records[4].Data != "192.0.2.1" {
		t.Errorf("glue record wrong: %+v", z.Records[4])
	}
}

func TestSLDs(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	got := z.SLDs()
	want := []string{
		"absolute.com", "another.com", "example.com",
		"glued.com", "xn--0wwy37b.com",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SLDs = %v, want %v", got, want)
	}
}

func TestScanFindsIDNs(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	st := Scan(z)
	if st.SLDCount != 5 {
		t.Errorf("SLDCount = %d, want 5", st.SLDCount)
	}
	if idns, _ := z.Partition(); st.IDNCount != 1 || len(idns) != 1 || idns[0] != "xn--0wwy37b.com" {
		t.Errorf("IDNCount = %d, IDNs = %v", st.IDNCount, idns)
	}
}

// TestPartition: the one walk yields the IDN / non-IDN split of SLDs(),
// also when an owner's records are not adjacent.
func TestPartition(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleZone + "example IN DS 1 8 2 abcd\nXN--0WWY37B IN NS ns2.parking.com.\n"))
	if err != nil {
		t.Fatal(err)
	}
	idns, others := z.Partition()
	if want := []string{"xn--0wwy37b.com"}; !reflect.DeepEqual(idns, want) {
		t.Errorf("IDNs = %v, want %v", idns, want)
	}
	if want := []string{"absolute.com", "another.com", "example.com", "glued.com"}; !reflect.DeepEqual(others, want) {
		t.Errorf("non-IDNs = %v, want %v", others, want)
	}
	if got := len(z.SLDs()); got != len(idns)+len(others) {
		t.Errorf("SLDs() has %d names, the partition %d", got, len(idns)+len(others))
	}
}

func TestScanITLDZoneAllIDN(t *testing.T) {
	const itldZone = `$ORIGIN xn--fiqs8s.
$TTL 3600
xn--fiq228c IN NS ns1.cnnic.cn.
xn--55qx5d IN NS ns2.cnnic.cn.
`
	z, err := Parse(strings.NewReader(itldZone))
	if err != nil {
		t.Fatal(err)
	}
	st := Scan(z)
	if st.SLDCount != 2 || st.IDNCount != 2 {
		t.Errorf("iTLD scan: %+v — every SLD under an iTLD is an IDN", st)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"no-origin", "example IN NS ns1.x.\n", ErrNoOrigin},
		{"bad-origin-args", "$ORIGIN\n", ErrSyntax},
		{"bad-ttl", "$ORIGIN com.\n$TTL abc\n", ErrSyntax},
		{"short-record", "$ORIGIN com.\nexample NS\n", ErrSyntax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	in := "; header\n\n$ORIGIN net.\n\na IN NS b.c. ; trailing comment\n"
	z, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Records) != 1 || z.Records[0].Data != "b.c." {
		t.Errorf("records = %+v", z.Records)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	z := &Zone{
		Origin:     "net",
		DefaultTTL: 3600,
		Records: []Record{
			{Owner: "example", Type: "NS", Data: "ns1.host.com."},
			{Owner: "xn--0wwy37b", TTL: 60, Type: "NS", Data: "ns.park.io."},
			{Owner: "deep.label", Type: "A", Data: "192.0.2.7"},
		},
	}
	var buf bytes.Buffer
	if err := z.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(z, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, z)
	}
}

func TestRoundTripPropertyRandomZones(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	randLabel := func() string {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	for trial := 0; trial < 50; trial++ {
		z := &Zone{Origin: randLabel(), DefaultTTL: uint32(r.Intn(100000))}
		n := r.Intn(40)
		for i := 0; i < n; i++ {
			rec := Record{
				Owner: randLabel(),
				Type:  []string{"NS", "A", "AAAA", "DS"}[r.Intn(4)],
				Data:  "ns" + randLabel() + ".example.net.",
			}
			if r.Intn(2) == 0 {
				rec.TTL = uint32(1 + r.Intn(86400))
			}
			z.Records = append(z.Records, rec)
		}
		var buf bytes.Buffer
		if err := z.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if z.DefaultTTL == 0 {
			back.DefaultTTL = 0 // $TTL 0 is omitted on write by design
		}
		if !reflect.DeepEqual(z, back) {
			t.Fatalf("trial %d round trip mismatch", trial)
		}
	}
}

func TestSLDsDedupe(t *testing.T) {
	in := "$ORIGIN com.\nfoo IN NS a.\nfoo IN NS b.\nFOO IN NS c.\n"
	z, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := z.SLDs(); len(got) != 1 || got[0] != "foo.com" {
		t.Errorf("SLDs = %v", got)
	}
}

func TestApexIgnored(t *testing.T) {
	in := "$ORIGIN com.\n@ IN NS root-ns.\ncom. IN NS other.\n"
	z, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := z.SLDs(); len(got) != 0 {
		t.Errorf("apex records should not yield SLDs, got %v", got)
	}
}

func BenchmarkParseLargeZone(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN com.\n$TTL 86400\n")
	for i := 0; i < 10000; i++ {
		sb.WriteString("domain")
		sb.WriteString(strings.Repeat("x", i%5))
		sb.WriteString(" IN NS ns1.example.net.\n")
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	z, err := Parse(strings.NewReader(sampleZone))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Scan(z)
	}
}
