package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idnlab/internal/core"
	"idnlab/internal/vstore"
)

// --- VerdictCache store hooks ----------------------------------------

func TestCachePutPeekWalk(t *testing.T) {
	c := NewVerdictCache(64, 4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("warm-%d.com", i)
		c.Put(k, vd(k))
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Put perturbed hit/miss counters: %+v", st)
	}
	if v, ok := c.Peek("warm-3.com"); !ok || v.Domain != "warm-3.com" {
		t.Fatalf("Peek warm key: %v %v", v, ok)
	}
	if _, ok := c.Peek("cold.com"); ok {
		t.Fatal("Peek hit a key that was never inserted")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek perturbed hit/miss counters: %+v", st)
	}
	if st := c.Stats(); st.Size != 10 {
		t.Fatalf("cache holds %d entries after 10 Puts", st.Size)
	}
}

// TestCachePeekDoesNotPromote pins Peek's non-perturbing contract: a
// peeked entry stays at its LRU position and is evicted as if the probe
// never happened (Get, by contrast, promotes).
func TestCachePeekDoesNotPromote(t *testing.T) {
	c := NewVerdictCache(2, 1)
	c.Put("a.com", vd("a.com"))
	c.Put("b.com", vd("b.com"))
	c.Peek("a.com") // must NOT promote a past b
	c.Put("c.com", vd("c.com"))
	if _, ok := c.Peek("a.com"); ok {
		t.Fatal("a.com survived eviction — Peek promoted it")
	}
	if _, ok := c.Peek("b.com"); !ok {
		t.Fatal("b.com evicted — wrong LRU victim")
	}
}

// TestCacheWriteThroughLeaderOnly: the durable write-through hook fires
// exactly once per fresh computation — not on hits, not on coalesced
// followers, not on warm Puts, not on compute errors.
func TestCacheWriteThroughLeaderOnly(t *testing.T) {
	c := NewVerdictCache(64, 4)
	var calls atomic.Uint64
	c.SetWriteThrough(func(key string, v core.Verdict) { calls.Add(1) })

	c.Do("a.com", func() (core.Verdict, error) { return vd("a.com"), nil })
	if calls.Load() != 1 {
		t.Fatalf("write-through after first Do: %d calls, want 1", calls.Load())
	}
	c.Do("a.com", func() (core.Verdict, error) {
		t.Fatal("compute ran on warm key")
		return core.Verdict{}, nil
	})
	if calls.Load() != 1 {
		t.Fatalf("write-through fired on a cache hit: %d calls", calls.Load())
	}
	c.Put("b.com", vd("b.com"))
	if calls.Load() != 1 {
		t.Fatalf("write-through fired on a warm Put: %d calls", calls.Load())
	}
	c.Do("err.com", func() (core.Verdict, error) { return core.Verdict{}, fmt.Errorf("boom") })
	if calls.Load() != 1 {
		t.Fatalf("write-through fired on a compute error: %d calls", calls.Load())
	}

	// Coalesced followers share the leader's single write-through.
	gate := make(chan struct{})
	var started sync.WaitGroup
	var wg sync.WaitGroup
	started.Add(1)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Do("cold.com", func() (core.Verdict, error) {
				started.Done() // only the leader gets here
				<-gate
				return vd("cold.com"), nil
			})
		}(i)
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let followers queue behind the leader
	close(gate)
	wg.Wait()
	if calls.Load() != 2 {
		t.Fatalf("write-through after coalesced burst: %d calls, want 2", calls.Load())
	}
}

// --- Server integration: warm boot, write-through, and the replica's
// endpoints mounted on the worker's mux (their behaviour is tested in
// internal/cluster; this is the wiring test) ---------------------------

func TestServerStoreWarmBootAndHandlers(t *testing.T) {
	dir := t.TempDir()

	// A previous incarnation committed one verdict and stopped cleanly.
	prev, err := vstore.Open(vstore.Config{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq := prev.Append(vd("warm.example")); seq == 0 {
		t.Fatal("seed append failed")
	}
	if err := prev.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := vstore.Open(vstore.Config{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := testServer(t, Config{NodeID: "n1", TopK: 100, Workers: 2, Store: st})
	t.Cleanup(func() { srv.CloseStore() })

	// Warm boot: the recovered key answers from cache on the very first
	// request — no detector pass, no new log append.
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"warm.example"}`)
	if resp.StatusCode != 200 || !strings.Contains(body, `"cached":true`) {
		t.Fatalf("warm-boot detect not cached: %d %q", resp.StatusCode, body)
	}

	// Write-through: fresh keys append to the warm log.
	before := st.Stats().Seq
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/detect", fmt.Sprintf(`{"domain":"fresh-%d.example"}`, i))
		if resp.StatusCode != 200 {
			t.Fatalf("detect fresh-%d: %d %q", i, resp.StatusCode, body)
		}
	}
	if got := st.Stats().Seq; got != before+3 {
		t.Fatalf("store seq %d after 3 fresh verdicts, want %d", got, before+3)
	}

	// No peer endpoint answers a cache lookup: a miss recomputes.
	if resp, _ := postJSON(t, ts.URL+"/v1/store/peek", `{"domain":"warm.example"}`); resp.StatusCode != 404 {
		t.Fatalf("POST /v1/store/peek: %d, want 404 (not routed)", resp.StatusCode)
	}

	// Replication ingest: one new verdict accepted, the duplicate of an
	// already-warm key deduplicated (that dedup is what stops replication
	// loops from growing the log without bound).
	var frames []byte
	for i, d := range []string{"warm.example", "repl-1.example"} {
		if frames, err = vstore.AppendFrame(frames, uint64(i+1), vd(d)); err != nil {
			t.Fatal(err)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/store/replicate", string(frames))
	if resp.StatusCode != 200 || !strings.Contains(body, `"accepted":1`) {
		t.Fatalf("replicate: %d %q", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"repl-1.example"}`); resp.StatusCode != 200 || !strings.Contains(body, `"cached":true`) {
		t.Fatalf("replicated key not warm: %d %q", resp.StatusCode, body)
	}

	// Anti-entropy feed: page the whole committed stream through the
	// cursor protocol and check it is ascending and complete.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	want := st.Stats().DurableSeq
	var after uint64
	var streamed int
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/store/since?seq=%d&max=2", ts.URL, after))
		if err != nil {
			t.Fatal(err)
		}
		// The body: u64le durable | u8 more | the page's record frames.
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(page) < 9 {
			t.Fatalf("since page: %d bytes, %v", len(page), err)
		}
		durable, more := binary.LittleEndian.Uint64(page), page[8] == 1
		recs, err := vstore.DecodeFrames(page[9:])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Seq <= after {
				t.Fatalf("since stream not ascending: seq %d after cursor %d", r.Seq, after)
			}
			after = r.Seq
			streamed++
		}
		if !more {
			if durable != want {
				t.Fatalf("final page durable %d, want %d", durable, want)
			}
			break
		}
	}
	if uint64(streamed) != want {
		t.Fatalf("streamed %d records, want %d", streamed, want)
	}

	// The /metrics store block carries both the vstore counters and the
	// cluster-facing ones — the smoke budgets scrape exactly this shape.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Store StoreStats `json:"store"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Store.Loaded || m.Store.WarmBootEntries != 1 {
		t.Fatalf("metrics store block: loaded=%v warmBoot=%d", m.Store.Loaded, m.Store.WarmBootEntries)
	}
	if m.Store.ReplicationIn != 1 {
		t.Fatalf("metrics replicationIn %d, want 1", m.Store.ReplicationIn)
	}
	if m.Store.Appends == 0 {
		t.Fatal("metrics store block missing vstore counters")
	}
}

// --- What stays durable: the store compacts from its own files, so
// neither the cache's contents nor the moment it is written decides it.

// openDurable opens a store at dir that compacts only when asked.
func openDurable(t *testing.T, dir string) *vstore.Store {
	t.Helper()
	st, err := vstore.Open(vstore.Config{Dir: dir, CompactBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// restartRecovers closes srv's store, reopens dir as a restarted worker
// would and returns the domains it warm-boots.
func restartRecovers(t *testing.T, srv *Server, dir string) map[string]bool {
	t.Helper()
	if err := srv.CloseStore(); err != nil {
		t.Fatal(err)
	}
	st := openDurable(t, dir)
	defer st.Close()
	got := make(map[string]bool)
	for _, r := range st.TakeRecovered() {
		got[r.Verdict.Domain] = true
	}
	return got
}

// TestWriteThroughCompactionWindow compacts inside the write-through
// hook, after the verdict is appended and before the cache holds it. The
// compaction deletes the log the verdict was appended to, so the
// snapshot must carry it.
func TestWriteThroughCompactionWindow(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	srv, ts := testServer(t, Config{NodeID: "n1", TopK: 100, Workers: 1, Store: st})
	t.Cleanup(func() { srv.CloseStore() })
	hook := srv.cache.writeThrough
	srv.cache.SetWriteThrough(func(key string, v core.Verdict) {
		hook(key, v)
		if err := st.Compact(); err != nil {
			t.Errorf("Compact in the window: %v", err)
		}
	})

	if resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"window.example"}`); resp.StatusCode != 200 {
		t.Fatalf("detect: %d %q", resp.StatusCode, body)
	}
	if got := st.Stats(); got.Snapshots != 1 || got.SnapshotSeq != 1 {
		t.Fatalf("the hook's compaction did not cover the append: %+v", got)
	}
	if !restartRecovers(t, srv, dir)["window.example"] {
		t.Fatal("a verdict appended before a compaction is gone after restart")
	}
}

// TestEvictedVerdictsStayDurable: a two-entry cache evicts eight of ten
// fresh verdicts before a compaction; all ten must survive a restart.
func TestEvictedVerdictsStayDurable(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	srv, ts := testServer(t, Config{NodeID: "n1", TopK: 100, Workers: 1, CacheSize: 2, Store: st})
	t.Cleanup(func() { srv.CloseStore() })

	const n = 10
	for i := 0; i < n; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/detect", fmt.Sprintf(`{"domain":"evicted-%d.example"}`, i)); resp.StatusCode != 200 {
			t.Fatalf("detect %d: %d %q", i, resp.StatusCode, body)
		}
	}
	if ev := srv.cache.Stats().Evictions; ev != n-2 {
		t.Fatalf("%d evictions, want %d", ev, n-2)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	got := restartRecovers(t, srv, dir)
	for i := 0; i < n; i++ {
		if k := fmt.Sprintf("evicted-%d.example", i); !got[k] {
			t.Errorf("%s lost at compaction (%d of %d recovered)", k, len(got), n)
		}
	}
}
