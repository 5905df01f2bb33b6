package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestCacheMissAtCapacityZeroAlloc: a miss nobody waits on, on a full
// cache, recycles the entry it evicts as its pending entry and
// allocates nothing in the cache.
func TestCacheMissAtCapacityZeroAlloc(t *testing.T) {
	const capacity = 256
	c := NewVerdictCache(capacity, 4)
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d.com", i)
	}
	v := vd("k.com")
	compute := func() (core.Verdict, error) { return v, nil }
	for _, k := range keys[:2*capacity] { // uneven shards are full after two capacities
		c.Do(k, compute)
	}
	i := 2 * capacity
	allocs := testing.AllocsPerRun(2*capacity-1, func() {
		c.Do(keys[i], compute)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a miss on a full cache allocates %v, want 0", allocs)
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("Len = %d after misses at capacity, want %d", got, capacity)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 4*capacity {
		t.Fatalf("stats: %+v", st)
	}
}

// pendingLeader starts a Do for key whose compute blocks until release
// is closed, and returns once the key's pending entry is in the cache.
// The leader's result arrives on the returned channel.
func pendingLeader(t *testing.T, c *VerdictCache, key string, release chan struct{}, v core.Verdict, err error) <-chan error {
	t.Helper()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		got, hit, gotErr := c.Do(key, func() (core.Verdict, error) {
			close(started)
			<-release
			return v, err
		})
		if gotErr == nil && (hit || got.Domain != v.Domain) {
			gotErr = fmt.Errorf("leader got %+v hit=%v", got, hit)
		}
		done <- gotErr
	}()
	<-started
	return done
}

// TestCacheFailingLeaderReachesEveryFollower: a lookup that finds a
// pending entry gets its leader's error and runs no compute of its own,
// and nothing is cached. A lookup that arrives after the leader has
// failed finds no entry and computes for itself; the leader is released
// only once at least one follower waits on it.
func TestCacheFailingLeaderReachesEveryFollower(t *testing.T) {
	c := NewVerdictCache(16, 1)
	boom := fmt.Errorf("boom")
	release := make(chan struct{})
	leader := pendingLeader(t, c, "x.com", release, core.Verdict{}, boom)

	const lookups = 8
	late := fmt.Errorf("computed after the leader failed")
	var wg sync.WaitGroup
	errs := make([]error, lookups)
	computed := make([]bool, lookups)
	for i := 0; i < lookups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do("x.com", func() (core.Verdict, error) {
				computed[i] = true
				return core.Verdict{}, late
			})
		}(i)
	}
	for !c.followed("x.com") {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leader; err != boom {
		t.Fatalf("leader err = %v, want boom", err)
	}
	wg.Wait()
	followers := 0
	for i, err := range errs {
		switch {
		case err == boom && !computed[i]:
			followers++
		case err == late && computed[i]:
		default:
			t.Fatalf("lookup %d: err = %v, computed %v; want the leader's error, or its own after the leader", i, err, computed[i])
		}
	}
	if followers == 0 {
		t.Fatal("no lookup followed the leader")
	}
	if _, ok := c.Peek("x.com"); ok || c.Len() != 0 {
		t.Fatalf("a failed verdict was cached (Len %d)", c.Len())
	}
	if st := c.Stats(); st.Coalesced != uint64(followers) || st.Misses != uint64(1+lookups-followers) {
		t.Fatalf("stats: %+v with %d followers", st, followers)
	}
}

// TestCachePeekAndPutLeavePendingToLeader: while a key is pending, Peek
// reports it absent and Put does not overwrite it; the leader's verdict
// is what lands.
func TestCachePeekAndPutLeavePendingToLeader(t *testing.T) {
	c := NewVerdictCache(16, 1)
	release := make(chan struct{})
	mine := core.Verdict{Domain: "p.com", Unicode: "leader"}
	leader := pendingLeader(t, c, "p.com", release, mine, nil)

	if _, ok := c.Peek("p.com"); ok {
		t.Fatal("Peek reports a pending key as cached")
	}
	if _, ok := c.Get("p.com"); ok {
		t.Fatal("Get reports a pending key as cached")
	}
	c.Put("p.com", core.Verdict{Domain: "p.com", Unicode: "replica"})
	if _, ok := c.Peek("p.com"); ok {
		t.Fatal("Put on a pending key made it cached before its leader finished")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d with only a pending key", c.Len())
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("p.com"); !ok || v.Unicode != "leader" {
		t.Fatalf("after the leader: Peek = %+v, %v; want the leader's verdict", v, ok)
	}
	c.Put("p.com", core.Verdict{Domain: "p.com", Unicode: "replica"})
	if v, _ := c.Peek("p.com"); v.Unicode != "replica" {
		t.Fatalf("Put on a cached key: Peek = %+v", v)
	}
	// The LRU list is intact: 20 more keys leave exactly the last 16.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("q%d.com", i)
		c.Put(k, vd(k))
	}
	if _, ok := c.Peek("p.com"); ok || c.Len() != 16 {
		t.Fatalf("after 20 inserts: p.com cached %v, Len %d; want evicted, 16", ok, c.Len())
	}
	for i := 4; i < 20; i++ {
		if _, ok := c.Peek(fmt.Sprintf("q%d.com", i)); !ok {
			t.Fatalf("q%d.com missing after the inserts", i)
		}
	}
}

// TestCacheCapacityOneWithPending: a one-entry shard evicts its entry
// for a pending miss, serves other keys while it is pending and never
// holds more than one cached verdict.
func TestCacheCapacityOneWithPending(t *testing.T) {
	c := NewVerdictCache(1, 1)
	c.Do("a.com", func() (core.Verdict, error) { return vd("a.com"), nil })
	release := make(chan struct{})
	leader := pendingLeader(t, c, "b.com", release, vd("b.com"), nil)
	if _, ok := c.Peek("a.com"); ok || c.Len() != 0 {
		t.Fatalf("the pending miss did not recycle a.com (Len %d)", c.Len())
	}

	// Another key completes and is cached while b.com is pending.
	if v, hit, err := c.Do("c.com", func() (core.Verdict, error) { return vd("c.com"), nil }); err != nil || hit || v.Domain != "c.com" {
		t.Fatalf("Do(c.com) = %+v, %v, %v", v, hit, err)
	}
	c.Put("d.com", vd("d.com"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// A follower of the pending key waits for it.
	follower := make(chan core.Verdict, 1)
	go func() {
		v, _, _ := c.Do("b.com", func() (core.Verdict, error) { return vd("wrong"), nil })
		follower <- v
	}()
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v := <-follower; v.Domain != "b.com" {
		t.Fatalf("follower got %+v", v)
	}
	if v, ok := c.Peek("b.com"); !ok || v.Domain != "b.com" || c.Len() != 1 {
		t.Fatalf("after the leader: Peek(b.com) = %+v, %v; Len %d", v, ok, c.Len())
	}
	if st := c.Stats(); st.Evictions != 3 || st.Size != 1 {
		t.Fatalf("stats: %+v", st) // a, c (by d), d (by b)
	}
}
