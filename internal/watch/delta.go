// Package watch is the streaming zone-delta tier: it parses day-over-day
// zone deltas (IXFR-style master files, the format internal/zonegen
// emits), matches every changed name against a standing table of
// per-brand subscriptions compiled through the candidate index, and
// hands confirmed findings to a durable alert log. Parsing and matching
// overlap (Runner.Poll parses one file ahead); on 30 day-deltas of 475k
// events a traced pass spends ~0.08 s parsing and ~0.15 s matching on
// 2 vCPU, and the whole idnwatch -once pass ~0.19 s. Its hot loop is a
// handful of O(1) hash probes with zero allocations steady-state, never
// an O(subscriptions) sweep.
package watch

import (
	"fmt"
	"io"
	"os"
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

// deltaParser is ParseDelta's state. Every owner of every zone
// becomes exactly one event, appended when its first NS record is read
// and rewritten in place when the addition section re-adds it (an NS
// change). One owner map covers the whole file: an event below the
// current zone's start belongs to an earlier zone and reads as absent,
// so no map is cleared or rebuilt per zone. The generator writes each
// owner's NS records back to back, so a record repeating the owner just
// read, in the same section, is settled without the map.
type deltaParser struct {
	serial    uint32 // the delta's serial: the first zone header's
	serialSet bool
	events    []Event
	index     map[string]int // owner -> position in events

	// The zone being read.
	origin   string
	zSerial  uint32
	soaCount int
	start    int    // its first event
	last     string // owner of the section's previous NS record
}

// bytesPerOwner sizes the owner map and the event list from the input
// length. A generated owner takes two NS lines of ~45 bytes (88-120
// bytes per event across the generator's churn mixes), so neither grows
// on a generated delta.
const bytesPerOwner = 80

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
	n := inputLen(r) / bytesPerOwner
	p := &deltaParser{index: make(map[string]int, n), events: make([]Event, 0, n)}
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

// inputLen is the number of bytes r holds when it reports one (a
// bytes.Reader, strings.Reader or regular file), else 0.
func inputLen(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
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
		p.origin, p.zSerial, p.soaCount, p.start = origin, 0, 0, len(p.events)
	}
	switch rec.Type {
	case "SOA":
		serial, err := soaSerial(rec.Data)
		if err != nil {
			return err
		}
		p.soaCount++
		p.last = "" // a new section; a zone's first NS follows its SOAs
		switch p.soaCount {
		case 1: // header: the delta's new serial
			p.zSerial = serial
			if !p.serialSet {
				p.serial, p.serialSet = serial, true
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
		if rec.Owner == p.last {
			return nil // a further NS of the owner just read: its first target stands
		}
		p.last = rec.Owner
		target := nsTarget(rec.Data)
		i, seen := p.index[rec.Owner]
		switch {
		case !seen || i < p.start: // first record of this owner in this zone
			p.index[rec.Owner] = len(p.events)
			ev := Event{Serial: p.zSerial, Op: OpAdd, Owner: rec.Owner, Origin: origin, NS: target}
			if p.soaCount == 2 {
				ev.Op, ev.NS, ev.OldNS = OpDrop, "", target
			}
			p.events = append(p.events, ev)
		case p.soaCount == 3 && p.events[i].Op == OpDrop: // deleted, now re-added: an NS change
			p.events[i].Op, p.events[i].NS = OpNSChange, target
		}
		// Otherwise a further NS of an owner already in this section.
	default:
		return fmt.Errorf("watch: zone %s: unexpected %s record in delta", origin, rec.Type)
	}
	return nil
}

// closeZone checks the zone being read is a complete IXFR (header, old
// and new SOA).
func (p *deltaParser) closeZone() error {
	if p.origin != "" && p.soaCount != 3 {
		return fmt.Errorf("watch: zone %s: %d SOA records, want 3 (header, old, new)", p.origin, p.soaCount)
	}
	return nil
}

// finish checks the last zone and returns the events. Each zone's are
// in the generator's commit order already — the deletion section's
// owners first (drops and NS changes), then the additions not seen
// there — which keeps parse → replay byte-deterministic.
func (p *deltaParser) finish() (*Delta, error) {
	if err := p.closeZone(); err != nil {
		return nil, err
	}
	if p.origin == "" {
		return nil, fmt.Errorf("watch: empty delta")
	}
	return &Delta{Serial: p.serial, Events: p.events}, nil
}
