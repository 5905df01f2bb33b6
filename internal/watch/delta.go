// Package watch is the streaming zone-delta tier: it parses day-over-day
// zone deltas (IXFR-style master files, the format internal/zonegen
// emits), matches every changed name against a standing table of
// per-brand subscriptions compiled through the candidate index, and
// hands confirmed findings to a durable alert log. Parsing and matching
// overlap (Runner.Poll parses one file ahead); on 30 day-deltas of 475k
// events a traced pass spends ~0.14 s parsing and ~0.51 s matching on
// 2 vCPU, and the whole idnwatch -once pass 0.36-0.46 s. The parser
// takes each canonical record line as the scanner's substrings and
// finds owners in a flat table keyed by a hash of the owner. The match
// loop is a handful of O(1) hash probes with zero allocations
// steady-state, never an O(subscriptions) sweep.
package watch

import (
	"fmt"
	"hash/maphash"
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
// change). One owner table covers the whole file: an event below the
// current zone's start belongs to an earlier zone and reads as absent,
// so no table is cleared or rebuilt per zone. The generator writes each
// owner's NS records back to back, so a record repeating the owner just
// read, in the same section, is settled before any hashing.
type deltaParser struct {
	serial    uint32 // the delta's serial: the first zone header's
	serialSet bool
	events    []Event
	// The owner table, open addressing on a hash of the owner: a slot
	// holds an event's position plus one (0 is empty), and a hit is
	// confirmed against that event's Owner. An owner has one slot,
	// which its event in a later zone takes over.
	slots []int32
	used  int // slots not empty

	// The zone being read.
	origin   string
	zSerial  uint32
	soaCount int
	start    int    // its first event
	last     string // owner of the section's previous NS record
}

// bytesPerOwner sizes the owner table and the event list from the
// input length. A generated owner takes two NS lines of ~45 bytes
// (88-120 bytes per event across the generator's churn mixes), so
// neither grows on a generated delta.
const bytesPerOwner = 80

// ownerSeed keys the owner table's hash.
var ownerSeed = maphash.MakeSeed()

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
	p := &deltaParser{events: make([]Event, 0, n), slots: make([]int32, tableSize(n))}
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
		slot := p.find(rec.Owner)
		i := int(p.slots[slot]) - 1
		switch {
		case i < p.start: // first record of this owner in this zone (-1: none before)
			if i < 0 {
				p.used++
			}
			p.slots[slot] = int32(len(p.events) + 1)
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

// tableSize is the owner table's length for n owners: a power of two
// that holds them at most 3/4 full.
func tableSize(n int) int {
	size := 16
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// find is the slot of owner: the one holding its event, else the empty
// slot where it goes. It first grows the table when one more owner
// would fill it past 3/4, so an input with more owners than its length
// suggests still ends every probe at an empty slot.
func (p *deltaParser) find(owner string) int {
	if 4*(p.used+1) > 3*len(p.slots) {
		p.grow()
	}
	mask := len(p.slots) - 1
	for i := int(maphash.String(ownerSeed, owner)) & mask; ; i = (i + 1) & mask {
		if v := p.slots[i]; v == 0 || p.events[v-1].Owner == owner {
			return i
		}
	}
}

// grow doubles the owner table and moves every slot into it.
func (p *deltaParser) grow() {
	old := p.slots
	p.slots = make([]int32, 2*len(old))
	for _, v := range old {
		if v != 0 {
			p.slots[p.find(p.events[v-1].Owner)] = v
		}
	}
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
