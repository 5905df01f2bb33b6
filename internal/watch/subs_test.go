package watch

import (
	"runtime"
	"slices"
	"testing"

	"idnlab/internal/simrand"
)

func TestSubTableBasics(t *testing.T) {
	tab := NewSubTable(10)

	tab.Subscribe(3, 101)
	tab.Subscribe(3, 100)
	tab.Subscribe(3, 100) // idempotent
	tab.Subscribe(7, 200)
	tab.Subscribe(99, 1) // out of catalog: ignored

	// Nothing reads as subscribed until Compile.
	if tab.Count(3) != 0 || tab.Total() != 0 {
		t.Fatalf("pre-compile Count(3) = %d, Total = %d, want 0 and 0", tab.Count(3), tab.Total())
	}

	tab.Compile()
	if tab.Total() != 3 {
		t.Fatalf("Total = %d, want 3", tab.Total())
	}
	if got := tab.Of(3); !slices.Equal(got, []uint64{100, 101}) {
		t.Fatalf("Of(3) = %v, want [100 101]", got)
	}
	if tab.Count(3) != 2 || tab.Count(7) != 1 || tab.Count(0) != 0 || tab.Count(99) != 0 {
		t.Fatalf("counts wrong: %d %d %d %d", tab.Count(3), tab.Count(7), tab.Count(0), tab.Count(99))
	}

	// The table is frozen: a second Compile changes nothing, and a
	// Subscribe panics.
	tab.Compile()
	if tab.Total() != 3 || !slices.Equal(tab.Of(3), []uint64{100, 101}) {
		t.Fatalf("second Compile: Total = %d, Of(3) = %v", tab.Total(), tab.Of(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe after Compile did not panic")
		}
	}()
	tab.Subscribe(3, 102)
}

// TestSubTableCompileMatchesSets: brands subscribed to in any order,
// with repeats, come out of Compile holding exactly their set of IDs,
// sorted, and Total is the sum of the sets.
func TestSubTableCompileMatchesSets(t *testing.T) {
	const nBrands = 50
	tab := NewSubTable(nBrands)
	want := make([]map[uint64]bool, nBrands)
	src := simrand.New(7)
	for i := 0; i < 5000; i++ {
		b, id := uint32(src.Intn(nBrands)), uint64(src.Intn(300))
		tab.Subscribe(b, id)
		if want[b] == nil {
			want[b] = make(map[uint64]bool)
		}
		want[b][id] = true
	}
	tab.Compile()
	total := 0
	for b := uint32(0); b < nBrands; b++ {
		got := tab.Of(b)
		if len(got) != len(want[b]) || tab.Count(b) != len(got) || !slices.IsSorted(got) {
			t.Fatalf("brand %d: %d IDs (count %d, sorted %v), want %d", b, len(got), tab.Count(b), slices.IsSorted(got), len(want[b]))
		}
		for _, id := range got {
			if !want[b][id] {
				t.Fatalf("brand %d holds %d, never subscribed", b, id)
			}
		}
		total += len(got)
	}
	if tab.Total() != total {
		t.Fatalf("Total = %d, sum of brands %d", tab.Total(), total)
	}
}

// TestSubSnapshotZeroAlloc: the hot-path reads of a compiled table must
// not allocate.
func TestSubSnapshotZeroAlloc(t *testing.T) {
	tab := NewSubTable(100)
	for i := 0; i < 1000; i++ {
		tab.Subscribe(uint32(i%100), uint64(i))
	}
	tab.Compile()
	allocs := testing.AllocsPerRun(100, func() {
		for b := uint32(0); b < 100; b++ {
			if len(tab.Of(b)) != tab.Count(b) {
				t.Fatal("Of/Count mismatch")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("table reads allocate: %v allocs/run", allocs)
	}
}

// TestSubTableHeldOnce: Compile drops the Subscribe-order lists, so 1M
// subscriptions cost their 8 MB of IDs once (8.0 MB live in all). A
// copy kept beside the compiled form, as the table once did, measures
// 18.9 MB here.
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
		t.Fatalf("%.1f bytes live per subscription, want <= 10 (8 for the ID, the rest the offsets)", perSub)
	}
	runtime.KeepAlive(tab)
}
