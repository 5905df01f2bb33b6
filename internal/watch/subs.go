package watch

import (
	"slices"
	"sync"
	"sync/atomic"
)

// subShards is the lock stripe count for the mutable subscription
// table. Power of two so the stripe pick is a mask, sized so that
// concurrent subscribe traffic from API handlers rarely collides.
const subShards = 64

// SubTable is the standing-subscription registry: which subscribers
// (opaque uint64 IDs — account IDs, webhook IDs) want alerts for which
// brand. The table has two faces: a lock-striped mutable side for
// subscribe churn, and an immutable compiled snapshot (CSR layout) the
// match hot path reads lock-free and allocation-free. Mutations do not
// show up in matching until Compile is called; the watch daemon
// compiles once at startup and after subscription batches, never per
// delta.
//
// Subscribe is an O(1) append; Compile sorts and dedups the lists
// appended to since the last compile and leaves every list aliasing its
// range of the new snapshot, so the subscriptions are held once, not
// once mutable and once compiled.
type SubTable struct {
	mu    [subShards]sync.Mutex // mu[brand&(subShards-1)] guards lists[brand] and dirty[brand]
	lists [][]uint64            // brand ID -> subscriber IDs
	dirty []bool                // brand appended to since the last Compile
	snap  atomic.Pointer[SubSnapshot]
}

// NewSubTable builds an empty table for a catalog of nBrands brands
// (brand IDs are candidx brand IDs: dense, 0..nBrands-1). The initial
// compiled snapshot is empty, so matching is valid before any Compile.
func NewSubTable(nBrands int) *SubTable {
	t := &SubTable{lists: make([][]uint64, nBrands), dirty: make([]bool, nBrands)}
	t.snap.Store(&SubSnapshot{off: make([]uint32, nBrands+1)})
	return t
}

// Subscribe registers subscriber for alerts on brand. Duplicate
// subscriptions are idempotent (Compile drops them). Brand IDs outside
// the catalog are ignored.
func (t *SubTable) Subscribe(brand uint32, subscriber uint64) {
	if int(brand) >= len(t.lists) {
		return
	}
	mu := &t.mu[brand&(subShards-1)]
	mu.Lock()
	// A compiled list has cap == len, so the first append after a
	// Compile copies it out of the published snapshot instead of
	// writing into it. Lists double: append's 1.25x step for long
	// slices copies each ID about four times over a bulk load.
	list := t.lists[brand]
	if len(list) == cap(list) {
		list = slices.Grow(list, len(list)+1)
	}
	t.lists[brand] = append(list, subscriber)
	t.dirty[brand] = true
	mu.Unlock()
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
// batches, never on the delta path. Each brand's subscribers come out
// sorted and unique.
func (t *SubTable) Compile() *SubSnapshot {
	for i := range t.mu {
		t.mu[i].Lock()
	}
	defer func() {
		for i := range t.mu {
			t.mu[i].Unlock()
		}
	}()
	n := len(t.lists)
	snap := &SubSnapshot{off: make([]uint32, n+1)}
	for brand, list := range t.lists {
		// Only an appended-to list is sorted in place: it owns its
		// array. A clean one still aliases a published snapshot.
		if t.dirty[brand] {
			slices.Sort(list)
			t.lists[brand] = slices.Compact(list)
			t.dirty[brand] = false
		}
		snap.off[brand+1] = snap.off[brand] + uint32(len(t.lists[brand]))
	}
	snap.total = int(snap.off[n])
	snap.ids = make([]uint64, snap.total)
	for brand, list := range t.lists {
		a, b := snap.off[brand], snap.off[brand+1]
		copy(snap.ids[a:b], list)
		t.lists[brand] = snap.ids[a:b:b]
	}
	t.snap.Store(snap)
	return snap
}

// Snapshot returns the most recently compiled snapshot. Never nil.
func (t *SubTable) Snapshot() *SubSnapshot { return t.snap.Load() }
