package watch

import "slices"

// SubTable is the standing-subscription registry: which subscribers
// (opaque uint64 IDs — account IDs, webhook IDs) want alerts for which
// brand. It is filled once and then frozen: Subscribe appends while the
// daemon starts, and Compile lays the table out in CSR form
// (off[brand] .. off[brand+1] indexes ids), each brand's subscribers
// sorted and unique. Nothing changes the table after Compile, so the
// match hot path reads a count as two array loads, with no lock and no
// allocation. Subscribe after Compile panics.
type SubTable struct {
	lists [][]uint64 // brand -> subscriber IDs in Subscribe order; nil once compiled
	off   []uint32   // brand -> start of its subscribers in ids; all zero until Compile
	ids   []uint64   // every brand's subscribers, brand after brand
}

// NewSubTable builds an empty table for a catalog of nBrands brands
// (brand IDs are candidx brand IDs: dense, 0..nBrands-1).
func NewSubTable(nBrands int) *SubTable {
	return &SubTable{lists: make([][]uint64, nBrands), off: make([]uint32, nBrands+1)}
}

// Subscribe registers subscriber for alerts on brand. Duplicate
// subscriptions are idempotent (Compile drops them). Brand IDs outside
// the catalog are ignored.
func (t *SubTable) Subscribe(brand uint32, subscriber uint64) {
	if t.lists == nil {
		panic("watch: Subscribe after Compile")
	}
	if int(brand) >= len(t.lists) {
		return
	}
	t.lists[brand] = append(t.lists[brand], subscriber)
}

// Compile freezes the table: it sorts and deduplicates each brand's
// list, packs the lists brand after brand into ids and drops them, so
// every ID is held once. O(subscriptions); called once, before the
// first delta. A second Compile does nothing.
func (t *SubTable) Compile() {
	if t.lists == nil {
		return
	}
	total := 0
	for _, list := range t.lists {
		total += len(list)
	}
	t.ids = make([]uint64, total)
	w := 0
	for b, list := range t.lists {
		slices.Sort(list)
		t.off[b] = uint32(w)
		w += copy(t.ids[w:], slices.Compact(list))
	}
	t.off[len(t.lists)] = uint32(w)
	t.ids, t.lists = t.ids[:w], nil
}

// Count returns the number of brand's subscribers: zero before Compile
// and for a brand outside the catalog.
func (t *SubTable) Count(brand uint32) int {
	if int(brand) >= len(t.off)-1 {
		return 0
	}
	return int(t.off[brand+1] - t.off[brand])
}

// Total reports the subscription count across all brands, zero before
// Compile.
func (t *SubTable) Total() int { return int(t.off[len(t.off)-1]) }
