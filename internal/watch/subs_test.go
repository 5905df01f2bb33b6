package watch

import (
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
