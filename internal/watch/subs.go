package watch

import (
	"sync"
	"sync/atomic"
)

// subShards is the stripe count for the mutable subscription table.
// Power of two so the shard pick is a mask, sized so that concurrent
// subscribe/unsubscribe traffic from API handlers rarely collides.
const subShards = 64

// SubTable is the standing-subscription registry: which subscribers
// (opaque uint64 IDs — account IDs, webhook IDs) want alerts for which
// brand. The table has two faces: a sharded mutable side for
// subscribe/unsubscribe churn, and an immutable compiled snapshot (CSR
// layout) the match hot path reads lock-free and allocation-free.
// Mutations do not show up in matching until Compile is called; the
// watch daemon compiles once at startup and after subscription batches,
// never per delta.
type SubTable struct {
	nBrands int
	shards  [subShards]subShard
	snap    atomic.Pointer[SubSnapshot]
}

type subShard struct {
	mu   sync.Mutex
	subs map[uint32][]uint64 // brand ID -> subscriber IDs (unsorted)
}

// NewSubTable builds an empty table for a catalog of nBrands brands
// (brand IDs are candidx brand IDs: dense, 0..nBrands-1). The initial
// compiled snapshot is empty, so matching is valid before any Compile.
func NewSubTable(nBrands int) *SubTable {
	t := &SubTable{nBrands: nBrands}
	for i := range t.shards {
		t.shards[i].subs = make(map[uint32][]uint64)
	}
	t.snap.Store(&SubSnapshot{off: make([]uint32, nBrands+1)})
	return t
}

func (t *SubTable) shard(brand uint32) *subShard {
	return &t.shards[brand&(subShards-1)]
}

// Subscribe registers subscriber for alerts on brand. Duplicate
// subscriptions are idempotent. Brand IDs outside the catalog are
// ignored.
func (t *SubTable) Subscribe(brand uint32, subscriber uint64) {
	if int(brand) >= t.nBrands {
		return
	}
	s := t.shard(brand)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.subs[brand] {
		if id == subscriber {
			return
		}
	}
	s.subs[brand] = append(s.subs[brand], subscriber)
}

// SubSnapshot is the compiled, immutable form of the table: CSR layout
// (off[brand] .. off[brand+1] indexes into ids) so a brand's subscriber
// list is two array reads and a slice header — no map probe, no lock,
// no allocation. Snapshots are shared by all matcher workers via an
// atomic pointer; a snapshot observed once stays valid forever.
type SubSnapshot struct {
	off   []uint32
	ids   []uint64
	total int
}

// Of returns brand's subscribers. The slice aliases the snapshot's
// backing array: read-only, valid for the snapshot's lifetime, zero
// allocations.
func (s *SubSnapshot) Of(brand uint32) []uint64 {
	if int(brand) >= len(s.off)-1 {
		return nil
	}
	return s.ids[s.off[brand]:s.off[brand+1]]
}

// Count returns the number of subscribers for brand without
// materializing the slice.
func (s *SubSnapshot) Count(brand uint32) int {
	if int(brand) >= len(s.off)-1 {
		return 0
	}
	return int(s.off[brand+1] - s.off[brand])
}

// Total reports the total subscription count across all brands.
func (s *SubSnapshot) Total() int { return s.total }

// Compile freezes the current table contents into a new snapshot and
// publishes it for matchers. O(subscriptions); called on subscription
// batches, never on the delta path.
func (t *SubTable) Compile() *SubSnapshot {
	snap := &SubSnapshot{off: make([]uint32, t.nBrands+1)}
	// Pass 1: per-brand counts (under each shard lock once).
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for brand, list := range s.subs {
			snap.off[brand+1] += uint32(len(list))
		}
		s.mu.Unlock()
	}
	for i := 1; i <= t.nBrands; i++ {
		snap.off[i] += snap.off[i-1]
	}
	snap.total = int(snap.off[t.nBrands])
	snap.ids = make([]uint64, snap.total)
	// Pass 2: fill. cursor tracks the next free slot per brand.
	cursor := make([]uint32, t.nBrands)
	copy(cursor, snap.off[:t.nBrands])
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for brand, list := range s.subs {
			n := copy(snap.ids[cursor[brand]:], list)
			cursor[brand] += uint32(n)
		}
		s.mu.Unlock()
	}
	t.snap.Store(snap)
	return snap
}

// Snapshot returns the most recently compiled snapshot. Never nil.
func (t *SubTable) Snapshot() *SubSnapshot { return t.snap.Load() }
