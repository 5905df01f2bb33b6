package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"idnlab/internal/core"
)

func vd(domain string) core.Verdict {
	return core.Verdict{Domain: domain, Unicode: domain}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewVerdictCache(64, 4)
	if _, ok := c.Get("a.com"); ok {
		t.Fatal("hit on empty cache")
	}
	v, hit, err := c.Do("a.com", func() (core.Verdict, error) { return vd("a.com"), nil })
	if err != nil || hit || v.Domain != "a.com" {
		t.Fatalf("first Do: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do("a.com", func() (core.Verdict, error) {
		t.Fatal("compute ran on warm key")
		return core.Verdict{}, nil
	})
	if err != nil || !hit || v.Domain != "a.com" {
		t.Fatalf("second Do: v=%v hit=%v err=%v", v, hit, err)
	}
	if _, ok := c.Get("a.com"); !ok {
		t.Fatal("Get missed after Do stored")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 { // initial Get + first Do miss; second Do + Get hit
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 shard × capacity 4: inserting 5 keys must evict exactly the
	// least recently used.
	c := NewVerdictCache(4, 1)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d.com", i)
		c.Do(k, func() (core.Verdict, error) { return vd(k), nil })
	}
	// Touch k0 so k1 becomes LRU.
	if _, ok := c.Get("k0.com"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Do("k4.com", func() (core.Verdict, error) { return vd("k4.com"), nil })
	if _, ok := c.Get("k1.com"); ok {
		t.Fatal("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0.com", "k2.com", "k3.com", "k4.com"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 4 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestCacheHitRate(t *testing.T) {
	c := NewVerdictCache(128, 2)
	for i := 0; i < 10; i++ {
		c.Do("hot.com", func() (core.Verdict, error) { return vd("hot.com"), nil })
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("hot-key stats: %+v", st)
	}
	if got, want := st.HitRate, 0.9; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
}

// TestCacheSingleflight pins the dedup guarantee: N concurrent Do calls
// for one cold key run compute exactly once.
func TestCacheSingleflight(t *testing.T) {
	c := NewVerdictCache(64, 4)
	const n = 32
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, err := c.Do("cold.com", func() (core.Verdict, error) {
				computes.Add(1)
				return vd("cold.com"), nil
			})
			if err != nil || v.Domain != "cold.com" {
				t.Errorf("Do: v=%v err=%v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		// The leader holds the in-flight slot until compute finishes;
		// every waiter must coalesce onto it.
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Coalesced+st.Hits != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d (stats %+v)", st.Coalesced+st.Hits, n-1, st)
	}
}

// TestCacheErrorNotCached pins that a failed compute is retried rather
// than negatively cached.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewVerdictCache(16, 1)
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do("x.com", func() (core.Verdict, error) { return core.Verdict{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	ran := false
	if _, _, err := c.Do("x.com", func() (core.Verdict, error) { ran = true; return vd("x.com"), nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compute not retried after error")
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewVerdictCache(100, 5)
	if got := len(c.shards); got != 8 {
		t.Fatalf("shards = %d, want 8 (next power of two)", got)
	}
}

// TestCacheInsertAtCapacityZeroAlloc: a full shard reuses the entry it
// evicts, so inserting into a full cache allocates nothing.
func TestCacheInsertAtCapacityZeroAlloc(t *testing.T) {
	const capacity = 256
	c := NewVerdictCache(capacity, 4)
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d.com", i)
	}
	for _, k := range keys[:2*capacity] { // uneven shards are full after two capacities
		c.Put(k, vd(k))
	}
	i := 2 * capacity
	allocs := testing.AllocsPerRun(2*capacity-1, func() {
		c.Put(keys[i], vd(keys[i]))
		i++
	})
	if allocs != 0 {
		t.Fatalf("insert into a full cache allocates %v, want 0", allocs)
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("Len = %d after inserts at capacity, want %d", got, capacity)
	}
}

// TestCacheHitsUnderEvictionChurn: with every insert recycling an
// evicted entry, a hit must still return its own key's verdict — the
// entry is read under the shard lock, before a concurrent insert can
// reuse it (`make race` checks the same from the memory model's side).
func TestCacheHitsUnderEvictionChurn(t *testing.T) {
	c := NewVerdictCache(4, 1)
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d.com", (i*7+g)%9)
				v, _, err := c.Do(k, func() (core.Verdict, error) { return vd(k), nil })
				if err != nil || v.Domain != k {
					wrong.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d lookups returned another key's verdict", n)
	}
}
