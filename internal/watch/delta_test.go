package watch

import (
	"bytes"
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

// FuzzDeltaParse: ParseDelta must never panic, and any delta it does
// accept must be structurally sound.
func FuzzDeltaParse(f *testing.F) {
	_, data := genDelta(f, 99, zonegen.DeltaConfig{AddsPerDay: 6, DropsPerDay: 2, NSChangesPerDay: 2}, 1)
	f.Add(string(data))
	f.Add("$ORIGIN com.\n@ IN SOA a. b. 5 900 300 604800 86400\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseDelta(strings.NewReader(input))
		if err != nil {
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

// TestParseDeltaAllocs pins the parser's allocation diet: the scanner
// takes one string per read block, the owner map and list grow once per
// file and the events are allocated once, so a full day's delta costs
// at most two allocations per event (it was ~9.6 with a string, a field
// slice and a failed TTL parse per line).
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
	if per := allocs / float64(len(d.Events)); per > 2 {
		t.Fatalf("ParseDelta: %.0f allocs for %d events = %.2f per event, want <= 2", allocs, len(d.Events), per)
	}
}
