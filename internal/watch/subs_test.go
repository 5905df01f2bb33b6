package watch

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

func sorted(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSubTableBasics(t *testing.T) {
	tab := NewSubTable(10)

	// Empty initial snapshot is valid for matching.
	if s := tab.Snapshot(); s == nil || s.Total() != 0 || s.Of(3) != nil && len(s.Of(3)) != 0 {
		t.Fatalf("initial snapshot not empty: %+v", s)
	}

	tab.Subscribe(3, 100)
	tab.Subscribe(3, 101)
	tab.Subscribe(3, 100) // idempotent
	tab.Subscribe(7, 200)
	tab.Subscribe(99, 1) // out of catalog: ignored

	// Mutations are invisible until Compile.
	if got := tab.Snapshot().Count(3); got != 0 {
		t.Fatalf("pre-compile Count(3) = %d, want 0", got)
	}

	snap := tab.Compile()
	if snap.Total() != 3 {
		t.Fatalf("Total = %d, want 3", snap.Total())
	}
	if got := sorted(snap.Of(3)); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("Of(3) = %v", got)
	}
	if snap.Count(3) != 2 || snap.Count(7) != 1 || snap.Count(0) != 0 || snap.Count(99) != 0 {
		t.Fatalf("counts wrong: %d %d %d %d", snap.Count(3), snap.Count(7), snap.Count(0), snap.Count(99))
	}

	// Old snapshots stay frozen after further mutation + recompile.
	tab.Subscribe(3, 102)
	snap2 := tab.Compile()
	if snap.Count(3) != 2 {
		t.Fatalf("old snapshot mutated: Count(3) = %d", snap.Count(3))
	}
	if got := sorted(snap2.Of(3)); len(got) != 3 || got[2] != 102 {
		t.Fatalf("post-subscribe Of(3) = %v", got)
	}
	if tab.Snapshot() != snap2 {
		t.Fatal("Snapshot() does not return latest compile")
	}
}

// TestSubTableConcurrent: concurrent subscribe/compile must
// be race-free (run under -race) and end in a consistent state.
func TestSubTableConcurrent(t *testing.T) {
	tab := NewSubTable(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				brand := uint32((g*500 + i) % 256)
				tab.Subscribe(brand, uint64(g)<<32|uint64(i))
				if i%7 == 0 {
					tab.Compile()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := tab.Compile()
	want := 0
	for b := uint32(0); b < 256; b++ {
		want += snap.Count(b)
	}
	if snap.Total() != want {
		t.Fatalf("Total %d != sum of counts %d", snap.Total(), want)
	}
}

// TestSubSnapshotZeroAlloc: the hot-path reads must not allocate.
func TestSubSnapshotZeroAlloc(t *testing.T) {
	tab := NewSubTable(100)
	for i := 0; i < 1000; i++ {
		tab.Subscribe(uint32(i%100), uint64(i))
	}
	snap := tab.Compile()
	allocs := testing.AllocsPerRun(100, func() {
		for b := uint32(0); b < 100; b++ {
			if len(snap.Of(b)) != snap.Count(b) {
				t.Fatal("Of/Count mismatch")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot reads allocate: %v allocs/run", allocs)
	}
}

// TestSubTableDuplicateAfterCompile: Subscribe only appends, so
// idempotence is Compile's dedup — including for a subscriber re-added
// to a list that already aliases the published snapshot.
func TestSubTableDuplicateAfterCompile(t *testing.T) {
	tab := NewSubTable(4)
	tab.Subscribe(1, 7)
	tab.Subscribe(1, 3)
	tab.Compile()
	tab.Subscribe(1, 7)
	tab.Subscribe(1, 3)
	tab.Subscribe(1, 7)
	snap := tab.Compile()
	if got := snap.Of(1); len(got) != 2 || got[0] != 3 || got[1] != 7 || snap.Total() != 2 {
		t.Fatalf("Of(1) = %v (total %d), want [3 7]", got, snap.Total())
	}
}

// TestSubSnapshotFrozenAcrossCompiles: after Compile the mutable lists
// alias the snapshot's array, so a later Subscribe or Compile that wrote
// in place would show through an older snapshot. Every published
// snapshot must read the same after any number of further rounds.
func TestSubSnapshotFrozenAcrossCompiles(t *testing.T) {
	const nBrands = 8
	tab := NewSubTable(nBrands)
	type view struct {
		snap *SubSnapshot
		of   [nBrands][]uint64
	}
	var views []view
	next := uint64(1000)
	for round := 0; round < 6; round++ {
		// Brand 0 is never touched after round 0 (its list keeps
		// aliasing every newer snapshot); the others get new IDs, lower
		// IDs that must sort in front, and duplicates.
		for b := uint32(0); b < nBrands; b++ {
			if b == 0 && round > 0 {
				continue
			}
			for k := 0; k < int(b)+1; k++ {
				next--
				tab.Subscribe(b, next)
				tab.Subscribe(b, next)
			}
			tab.Subscribe(b, 5000+uint64(b))
		}
		snap := tab.Compile()
		v := view{snap: snap}
		for b := uint32(0); b < nBrands; b++ {
			v.of[b] = append([]uint64(nil), snap.Of(b)...)
			if !slices.IsSorted(v.of[b]) || len(slices.Compact(slices.Clone(v.of[b]))) != len(v.of[b]) {
				t.Fatalf("round %d brand %d: %v not sorted and unique", round, b, v.of[b])
			}
		}
		views = append(views, v)
		for i, old := range views {
			for b := uint32(0); b < nBrands; b++ {
				if !slices.Equal(old.snap.Of(b), old.of[b]) || old.snap.Count(b) != len(old.of[b]) {
					t.Fatalf("after round %d: snapshot %d brand %d reads %v (count %d), was %v",
						round, i, b, old.snap.Of(b), old.snap.Count(b), old.of[b])
				}
			}
		}
	}
}

// TestSubTableHeldOnce: after Compile the mutable lists alias the
// snapshot, so 1M subscriptions cost their 8 MB of IDs once (8.3 MB
// live in all). A mutable copy kept beside the snapshot, as the table
// once did, measures 18.9 MB here.
func TestSubTableHeldOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 1M-subscription table")
	}
	const nBrands, subs = 10_000, 1_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewSubTable(nBrands)
	for i := 0; i < subs; i++ {
		tab.Subscribe(uint32(i%nBrands), uint64(i))
	}
	tab.Compile()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("1M subscriptions over %d brands: %.1f MB live", nBrands, float64(live)/1e6)
	if perSub := float64(live) / subs; perSub > 10 {
		t.Fatalf("%.1f bytes live per subscription, want <= 10 (8 for the ID, the rest offsets and list headers)", perSub)
	}
	runtime.KeepAlive(tab)
}
