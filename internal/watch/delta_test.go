package watch

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

	"idnlab/internal/zonegen"
)

// genDelta renders one zonegen day delta and returns both forms: the
// generator's record list (ground truth) and the serialized bytes.
func genDelta(t testing.TB, seed uint64, cfg zonegen.DeltaConfig, days int) (*zonegen.DayDelta, []byte) {
	t.Helper()
	reg := zonegen.Generate(zonegen.Config{Seed: seed, Scale: 500})
	gen := reg.DeltaStream(cfg)
	var d *zonegen.DayDelta
	for i := 0; i < days; i++ {
		d = gen.Next()
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return d, buf.Bytes()
}

// flattenRecords converts zonegen's ground truth into the event list
// ParseDelta should reconstruct, in the generator's commit order.
func flattenRecords(d *zonegen.DayDelta) []Event {
	var events []Event
	for _, z := range d.Zones {
		for _, rec := range z.Records {
			ev := Event{Serial: d.Serial, Owner: rec.Owner, Origin: z.Origin}
			switch rec.Op {
			case zonegen.DeltaAdd:
				ev.Op, ev.NS = OpAdd, rec.NS
			case zonegen.DeltaDrop:
				ev.Op, ev.OldNS = OpDrop, rec.OldNS
			case zonegen.DeltaNSChange:
				ev.Op, ev.NS, ev.OldNS = OpNSChange, rec.NS, rec.OldNS
			}
			events = append(events, ev)
		}
	}
	return events
}

// TestParseDeltaRoundTrip: ParseDelta must reconstruct exactly the
// operations zonegen committed — op, owner, origin, old and new NS —
// in the same order, for several churn mixes.
func TestParseDeltaRoundTrip(t *testing.T) {
	cfgs := []zonegen.DeltaConfig{
		{},
		{AddsPerDay: 50, DropsPerDay: 20, NSChangesPerDay: 15},
		{AddsPerDay: 5, DropsPerDay: 0, NSChangesPerDay: 0},
		{AddsPerDay: 0, DropsPerDay: 7, NSChangesPerDay: 3},
	}
	for i, cfg := range cfgs {
		gt, data := genDelta(t, uint64(40+i), cfg, 2)
		want := flattenRecords(gt)
		d, err := ParseDelta(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("cfg %d: ParseDelta: %v", i, err)
		}
		if d.Serial != gt.Serial {
			t.Errorf("cfg %d: serial %d, want %d", i, d.Serial, gt.Serial)
		}
		if len(d.Events) != len(want) {
			t.Fatalf("cfg %d: %d events, want %d", i, len(d.Events), len(want))
		}
		for j, ev := range d.Events {
			if ev != want[j] {
				t.Errorf("cfg %d event %d:\n got %+v\nwant %+v", i, j, ev, want[j])
			}
		}
	}
}

// TestParseDeltaFileNameCompat: the runner's filename parser must accept
// exactly what zonegen emits.
func TestParseDeltaFileNameCompat(t *testing.T) {
	for _, serial := range []uint32{1, zonegen.SerialBase + 1, 4294967295} {
		name := zonegen.DeltaFileName(serial)
		got, ok := ParseDeltaFileName(name)
		if !ok || got != serial {
			t.Errorf("ParseDeltaFileName(%q) = %d, %v; want %d, true", name, got, ok, serial)
		}
	}
	for _, bad := range []string{"delta-.zone", "delta-x.zone", "snapshot-001.zone", "delta-001", "delta-99999999999999999999.zone", ""} {
		if _, ok := ParseDeltaFileName(bad); ok {
			t.Errorf("ParseDeltaFileName(%q) accepted", bad)
		}
	}
}

// TestParseDeltaMalformed: structural damage must produce errors, never
// panics and never silently-wrong events.
func TestParseDeltaMalformed(t *testing.T) {
	_, data := genDelta(t, 77, zonegen.DeltaConfig{AddsPerDay: 10, DropsPerDay: 3, NSChangesPerDay: 2}, 1)
	text := string(data)

	cases := map[string]string{
		"empty":             "",
		"no origin":         "foo IN NS ns1.dns-host.net.\n",
		"truncated mid-SOA": text[:strings.Index(text, "SOA")+10],
		"A record":          strings.Replace(text, " IN NS ", " IN A ", 1),
		"bad serial":        strings.Replace(text, " 2017080101 900 ", " notanumber 900 ", 1),
		"extra SOA":         text + "@ IN SOA ns1.registry.example. hostmaster.registry.example. 2017080101 900 300 604800 86400\n",
	}
	for name, input := range cases {
		if _, err := ParseDelta(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ParseDelta accepted malformed input", name)
		}
	}
}

// soa is one SOA line of a hand-written delta.
func soa(serial uint32) string {
	return fmt.Sprintf("@ IN SOA ns1.registry.example. hostmaster.registry.example. %d 900 300 604800 86400\n", serial)
}

// TestParseDeltaCaseAndSections: owners in any case are one owner, "In
// Ns" is an NS record, and an owner in both sections is one NS change
// whose first target per section stands — when its records are written
// in different cases (the repeat is seen after folding), when the
// addition section opens with the owner that closed the deletion
// section, and when a later record of it names another provider.
func TestParseDeltaCaseAndSections(t *testing.T) {
	text := "$ORIGIN COM.\n" + soa(7) + soa(6) +
		"OLD IN NS ns1.a.net.\n" +
		"old In Ns ns2.a.net.\n" +
		"Moved IN NS ns1.b.net.\n" +
		"moved in ns ns2.b.net.\n" +
		soa(7) +
		"MOVED IN NS ns1.c.net.\n" +
		"New 300 in NS ns1.d.net.\n" +
		"moved IN NS ns2.e.net.\n" +
		"NEW IN NS ns2.d.net.\n"
	d, err := ParseDelta(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Serial: 7, Op: OpDrop, Owner: "old", Origin: "com", OldNS: "a.net"},
		{Serial: 7, Op: OpNSChange, Owner: "moved", Origin: "com", NS: "c.net", OldNS: "b.net"},
		{Serial: 7, Op: OpAdd, Owner: "new", Origin: "com", NS: "d.net"},
	}
	if d.Serial != 7 || !reflect.DeepEqual(d.Events, want) {
		t.Fatalf("ParseDelta = serial %d %+v\nwant serial 7 %+v", d.Serial, d.Events, want)
	}
}

// TestParseDeltaZeroSerialIsSet: a first zone at serial 0 sets the
// delta's serial like any other, so a later zone at another serial is
// refused (a zero meant "not set yet" and let such a delta through as
// the later serial).
func TestParseDeltaZeroSerialIsSet(t *testing.T) {
	text := "$ORIGIN com.\n" + soa(0) + soa(4294967295) + "x IN NS ns1.h.net.\n" + soa(0) +
		"$ORIGIN net.\n" + soa(5) + soa(4) + soa(5)
	d, err := ParseDelta(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), "zone net serial 5 differs from delta serial 0") {
		t.Fatalf("ParseDelta = %+v, %v; want the cross-zone serial error", d, err)
	}
}

// parseDeltaRef is ParseDelta as it read deltas before the scanner's
// canonical-record path and the flat owner table, kept as the
// differential's reference: lines framed by bufio.ScanLines within the
// scanner's 1 MiB limit, cut at ';' and split by strings.Fields;
// $ORIGIN and $TTL read positionally; the owner lowered, an all-digit
// second field tried as a TTL, "IN" matched in any case and the type
// raised; and a map from owner to event position.
func parseDeltaRef(input string) (*Delta, error) {
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	d := &Delta{Events: []Event{}}
	serialSet := false
	index := map[string]int{}
	origin, zone, last := "", "", ""
	var zSerial uint32
	soaCount, start := 0, 0
	closeZone := func() error {
		if zone != "" && soaCount != 3 {
			return fmt.Errorf("zone %s: %d SOA records", zone, soaCount)
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "$ORIGIN":
			if len(f) != 2 {
				return nil, errors.New("$ORIGIN wants one argument")
			}
			origin = strings.TrimSuffix(strings.ToLower(f[1]), ".")
			continue
		case "$TTL":
			if len(f) != 2 {
				return nil, errors.New("$TTL wants one argument")
			}
			if _, err := strconv.ParseUint(f[1], 10, 32); err != nil {
				return nil, err
			}
			continue
		}
		if len(f) < 3 {
			return nil, errors.New("record needs owner, type and data")
		}
		owner, i := strings.ToLower(f[0]), 1
		if _, err := strconv.ParseUint(f[1], 10, 32); err == nil {
			i++
		}
		if i < len(f) && strings.EqualFold(f[i], "IN") {
			i++
		}
		if i+1 >= len(f) {
			return nil, errors.New("record missing type or data")
		}
		typ, data := strings.ToUpper(f[i]), strings.Join(f[i+1:], " ")
		if origin == "" {
			return nil, errors.New("record before $ORIGIN")
		}
		if origin != zone {
			if err := closeZone(); err != nil {
				return nil, err
			}
			zone, zSerial, soaCount, start = origin, 0, 0, len(d.Events)
		}
		switch typ {
		case "SOA":
			serial, err := soaSerial(data)
			if err != nil {
				return nil, err
			}
			soaCount++
			last = ""
			switch {
			case soaCount == 1 && !serialSet:
				zSerial, d.Serial, serialSet = serial, serial, true
			case soaCount == 1 && serial == d.Serial:
				zSerial = serial
			case soaCount == 2 && serial == zSerial-1, soaCount == 3 && serial == zSerial:
			default:
				return nil, fmt.Errorf("zone %s: SOA %d serial %d", zone, soaCount, serial)
			}
		case "NS":
			if soaCount != 2 && soaCount != 3 {
				return nil, errors.New("NS record outside IXFR sections")
			}
			if owner == last {
				continue
			}
			last = owner
			target := nsTarget(data)
			j, seen := index[owner]
			switch {
			case !seen || j < start:
				index[owner] = len(d.Events)
				ev := Event{Serial: zSerial, Op: OpAdd, Owner: owner, Origin: zone, NS: target}
				if soaCount == 2 {
					ev.Op, ev.NS, ev.OldNS = OpDrop, "", target
				}
				d.Events = append(d.Events, ev)
			case soaCount == 3 && d.Events[j].Op == OpDrop:
				d.Events[j].Op, d.Events[j].NS = OpNSChange, target
			}
		default:
			return nil, fmt.Errorf("unexpected %s record", typ)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := closeZone(); err != nil {
		return nil, err
	}
	if zone == "" {
		return nil, errors.New("empty delta")
	}
	return d, nil
}

// checkAgainstRef: ParseDelta, over a reader that reports the input's
// length and one that does not (the owner table then starts at its
// smallest), returns the reference's Delta, or an error where the
// reference does.
func checkAgainstRef(t *testing.T, input string) *Delta {
	t.Helper()
	want, wantErr := parseDeltaRef(input)
	for _, r := range []io.Reader{strings.NewReader(input), struct{ io.Reader }{strings.NewReader(input)}} {
		got, err := ParseDelta(r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ParseDelta error %v, reference error %v, on %q", err, wantErr, input)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseDelta diverges from the reference on %q:\n got %+v\nwant %+v", input, got, want)
		}
	}
	return want
}

// zoneText is one zone section of a delta at serial: the header SOA,
// the deletion section, then the addition section.
func zoneText(origin string, serial uint32, drops, adds string) string {
	return "$ORIGIN " + origin + ".\n" + soa(serial) + soa(serial-1) + drops + soa(serial) + adds
}

// FuzzDeltaParse is the differential for ParseDelta: on every input it
// returns what parseDeltaRef returns, or an error where it does, and a
// delta it accepts is structurally sound.
func FuzzDeltaParse(f *testing.F) {
	_, data := genDelta(f, 99, zonegen.DeltaConfig{AddsPerDay: 6, DropsPerDay: 2, NSChangesPerDay: 2}, 1)
	f.Add(string(data))
	f.Add("$ORIGIN com.\n@ IN SOA a. b. 5 900 300 604800 86400\n")
	f.Add("")
	f.Add(zoneText("com", 9, "a\tIN\tNS\tns1.x.net.\n", "b\tIN NS\tns1.y.net.\n"))
	f.Add(strings.ReplaceAll(zoneText("com", 9, "a IN NS ns1.x.net.\n", "b IN NS ns1.y.net.\n"), "\n", "\r\n"))
	f.Add(zoneText("com", 9, "a IN NS ns1.x.net. ; gone\n", "b IN NS ns1.y.net.;new\n"))
	f.Add(zoneText("com", 9, "a 300 IN NS ns1.x.net.\n", "$TTL 60\nb 60 NS ns1.y.net.\n"))
	f.Add(zoneText("com", 9, "a in ns ns1.x.net.\n", "b In nS ns1.y.net.\n"))
	f.Add(zoneText("COM", 9, "OLD IN NS ns1.x.net.\n", "New IN NS ns1.y.net.\nNEW IN NS ns2.y.net.\n"))
	f.Add(zoneText("com", 9, "a\x7fb IN NS ns1.x\x7f.net.\n", "\u00c9cole IN NS ns1.\u00e9.net.\n\xff IN NS \xfe.\n"))
	f.Add(zoneText("com", 9, "a IN NS ns1.x.net.\nb IN NS ns1.y.net.\na IN NS ns2.z.net.\n", "c IN NS ns1.w.net.\nb IN NS ns1.v.net.\nc IN NS ns2.u.net.\n"))
	f.Add(zoneText("com", 9, "a IN NS ns1.x.net.\n", "") + zoneText("net", 9, "", "a IN NS ns1.y.net.\n"))
	f.Add(zoneText("com", 9, "a IN NS ns1.x.net.\na IN NS ns2.x.net.\n", "a IN NS ns1.y.net.\n"))
	f.Fuzz(func(t *testing.T, input string) {
		d := checkAgainstRef(t, input)
		if d == nil {
			return
		}
		for _, ev := range d.Events {
			if ev.Owner == "" || ev.Origin == "" {
				t.Fatalf("accepted delta with empty owner/origin: %+v", ev)
			}
			switch ev.Op {
			case OpAdd:
				if ev.OldNS != "" {
					t.Fatalf("add with OldNS: %+v", ev)
				}
			case OpDrop:
				if ev.NS != "" {
					t.Fatalf("drop with NS: %+v", ev)
				}
			case OpNSChange:
			default:
				t.Fatalf("invalid op %d", ev.Op)
			}
		}
	})
}

// TestParseDeltaOwnerTable pins the owner table's cases against the
// reference: a delta of one-letter owners, far more than its length
// sizes the table for, so the table grows; an owner repeated within a
// section but not on consecutive lines; one owner in two zones, whose
// second event takes over the first's slot; and 1,000 owners dropped
// and re-added, each one NS change.
func TestParseDeltaOwnerTable(t *testing.T) {
	var letters, drops, adds strings.Builder
	for _, c := range "abcdefghijklmnopqrstuvwxyz0123456789" {
		fmt.Fprintf(&letters, "%c IN NS b.\n", c)
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&drops, "d%d IN NS ns1.old.net.\n", i)
		fmt.Fprintf(&adds, "d%d IN NS ns1.new.net.\n", i)
	}
	oneLetter := zoneText("com", 9, "", letters.String())
	if n := len(oneLetter) / bytesPerOwner; 4*36 <= 3*tableSize(n) {
		t.Fatalf("the %d-byte one-letter delta sizes a table that holds its 36 owners: it no longer makes the table grow", len(oneLetter))
	}
	cases := []struct {
		name, text string
		events     int
	}{
		{"one-letter owners", oneLetter, 36},
		{"non-consecutive repeat", zoneText("com", 9,
			"a IN NS ns1.x.net.\nb IN NS ns1.y.net.\na IN NS ns2.z.net.\n",
			"c IN NS ns1.w.net.\nb IN NS ns1.v.net.\nc IN NS ns2.u.net.\n"), 3},
		{"one owner in two zones", zoneText("com", 9, "a IN NS ns1.x.net.\n", "") +
			zoneText("net", 9, "", "a IN NS ns1.y.net.\n"), 2},
		{"1,000 drop-then-re-add pairs", zoneText("com", 9, drops.String(), adds.String()), 1000},
	}
	for _, c := range cases {
		d := checkAgainstRef(t, c.text)
		if d == nil || len(d.Events) != c.events {
			t.Fatalf("%s: reference delta %+v, want %d events", c.name, d, c.events)
		}
	}
}

// TestParseDeltaAllocs pins the parser's allocation diet: the scanner
// takes one string per read block, the owner table and the event list
// are sized once from the input length, and what is left is the ~55
// zone SOAs' data, split once each. A day of 4,750 events costs 180
// allocations, 0.038 per event; the bound of 0.05 leaves ~30 %
// headroom, and any allocation per line or per event fails it.
func TestParseDeltaAllocs(t *testing.T) {
	_, data := genDelta(t, 1707, zonegen.DeltaConfig{AddsPerDay: 3000}, 1)
	d, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseDelta(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(d.Events)); per > 0.05 {
		t.Fatalf("ParseDelta: %.0f allocs for %d events = %.3f per event, want <= 0.05", allocs, len(d.Events), per)
	}
}
