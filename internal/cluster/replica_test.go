package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/core"
	"idnlab/internal/vstore"
)

// The Replica is tested without a serve.Server: the worker is a
// map-backed Cache, peers are httptest servers mounting Register.

func vd(domain string) core.Verdict { return core.Verdict{Domain: domain, Unicode: domain} }

type mapCache struct {
	mu sync.Mutex
	m  map[string]core.Verdict
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]core.Verdict)} }

func (c *mapCache) Peek(key string) (core.Verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, v core.Verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

func (c *mapCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func openStore(t testing.TB, dir string) *vstore.Store {
	t.Helper()
	st, err := vstore.Open(vstore.Config{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// replicaNode is one Replica behind an httptest listener.
type replicaNode struct {
	r     *Replica
	cache *mapCache
	store *vstore.Store
	addr  string
	since atomic.Value // string: the last since query this node served
}

func startReplicaNode(t *testing.T, cfg ReplicaConfig, st *vstore.Store) *replicaNode {
	t.Helper()
	n := &replicaNode{cache: newMapCache(), store: st}
	n.r = NewReplica(cfg, n.cache, st)
	mux := http.NewServeMux()
	n.r.Register(mux)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == sincePath {
			n.since.Store(r.URL.RawQuery)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	n.addr = strings.TrimPrefix(ts.URL, "http://")
	return n
}

// attach gives the node a peer registered as self whose view is nodes.
func (n *replicaNode) attach(self string, epoch uint64, nodes ...NodeInfo) *Peer {
	p := NewPeer("gateway.invalid:1", self, n.addr)
	p.view = ClusterView{Epoch: epoch, Nodes: nodes}
	n.r.Attach(p)
	return p
}

func replicateFrame(t testing.TB, results ...api.DetectResponse) string {
	t.Helper()
	frame, err := api.AppendBatchResponse(nil, &api.BatchResponse{Count: len(results), Results: results})
	if err != nil {
		t.Fatal(err)
	}
	return string(frame)
}

func post(t *testing.T, addr, path, body string) (int, string) {
	t.Helper()
	rep, err := callWithin(context.Background(), 5*time.Second, http.MethodPost, addr, path, []byte(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer rep.Release()
	return rep.Status, string(rep.Body)
}

// TestReplicaRoundTrip carries verdicts through every peer format once:
// a replicate frame into node a (error results and already-cached keys
// refused, nothing re-appended), a's since feed into node b's
// anti-entropy round, which keeps only what b is an R=2 candidate for —
// and b's cursor, which survives a restart and a corrupt peers.json.
func TestReplicaRoundTrip(t *testing.T) {
	a := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	a.cache.Put("warm.example", vd("warm.example"))

	var results []api.DetectResponse
	for i := 0; i < 40; i++ {
		results = append(results, api.DetectResponse{Verdict: vd(fmt.Sprintf("repl-%d.example", i))})
	}
	results = append(results,
		api.DetectResponse{Verdict: vd("warm.example")},
		api.DetectResponse{Input: "bad..name", Error: "empty label"},
		api.DetectResponse{Verdict: vd("errored.example"), Error: "shed"})
	if code, body := post(t, a.addr, replicatePath, replicateFrame(t, results...)); code != 200 || !strings.Contains(body, `"accepted":40`) {
		t.Fatalf("replicate: %d %q", code, body)
	}
	if _, ok := a.cache.Peek("errored.example"); ok {
		t.Fatal("an error result was ingested")
	}
	if got := a.store.Stats().Seq; got != 40 {
		t.Fatalf("store seq %d after 40 new verdicts and one already-cached key, want 40", got)
	}
	// The same frame again is all duplicates: accepted 0, log unchanged.
	if code, body := post(t, a.addr, replicatePath, replicateFrame(t, results...)); code != 200 || !strings.Contains(body, `"accepted":0`) {
		t.Fatalf("replicate again: %d %q", code, body)
	}
	if got, st := a.store.Stats().Seq, a.r.Stats(); got != 40 || st.ReplicationIn != 40 {
		t.Fatalf("after the duplicate frame: seq %d replicationIn %d, want 40 and 40", got, st.ReplicationIn)
	}
	if err := a.store.Sync(); err != nil {
		t.Fatal(err)
	}

	// Node b sees a three-node ring (c is alive but has no address, so it
	// is placed but never streamed from): b keeps the records it is owner
	// or replica for and counts the rest as skipped.
	bDir := t.TempDir()
	b := startReplicaNode(t, ReplicaConfig{}, openStore(t, bDir))
	view := []NodeInfo{
		{ID: "a", Addr: a.addr, State: StateAlive},
		{ID: "b", Addr: b.addr, State: StateAlive},
		{ID: "c", State: StateAlive},
	}
	p := b.attach("b", 1, view...)
	want := 0
	for i := 0; i < 40; i++ {
		if candidateFor(NewRing(view), fmt.Sprintf("repl-%d.example", i), "b") {
			want++
		}
	}
	if want == 0 || want == 40 {
		t.Fatalf("fixture does not exercise the placement filter: b is a candidate for %d of 40", want)
	}
	wm := b.r.loadWatermarks()
	if !b.r.syncRound(context.Background(), p, wm) {
		t.Fatalf("sync round not clean: %+v", b.r.Stats())
	}
	st := b.r.Stats()
	if int(st.SyncIngested) != want || int(st.SyncSkipped) != 40-want || st.SyncRounds != 1 || st.SyncErrors != 0 {
		t.Fatalf("sync counters %+v, want %d ingested and %d skipped in one clean round", st, want, 40-want)
	}
	if b.cache.len() != want || int(b.store.Stats().Seq) != want {
		t.Fatalf("b holds %d cached / seq %d, want %d", b.cache.len(), b.store.Stats().Seq, want)
	}
	if wm["a"] != 40 {
		t.Fatalf("cursor for a = %d, want its durable mark 40", wm["a"])
	}

	// A restarted b resumes from the persisted cursor.
	b2 := &Replica{store: b.store}
	if got := b2.loadWatermarks(); got["a"] != 40 {
		t.Fatalf("cursor after restart = %v, want a:40", got)
	}
	b.r.syncRound(context.Background(), p, b.r.loadWatermarks())
	if q := a.since.Load().(string); !strings.HasPrefix(q, "seq=40&") {
		t.Fatalf("second round asked a for %q, want the suffix after 40", q)
	}

	// A null or garbage peers.json means "from zero", and the replay is
	// absorbed by ingest dedup: nothing is appended twice.
	for _, junk := range []string{`null`, `{"a":`} {
		if err := os.WriteFile(b.r.watermarkPath(), []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		wm := b.r.loadWatermarks()
		if wm == nil || len(wm) != 0 {
			t.Fatalf("loadWatermarks(%q) = %v, want an empty writable map", junk, wm)
		}
		if !b.r.syncRound(context.Background(), p, wm) || wm["a"] != 40 {
			t.Fatalf("round after %q peers.json: cursor %v", junk, wm)
		}
		if q := a.since.Load().(string); !strings.HasPrefix(q, "seq=0&") {
			t.Fatalf("round after %q peers.json asked a for %q, want seq=0", junk, q)
		}
		if int(b.store.Stats().Seq) != want {
			t.Fatalf("replay re-appended: seq %d, want %d", b.store.Stats().Seq, want)
		}
	}
}

// nopCache retains nothing: the limit of a store larger than its cache.
type nopCache struct{}

func (nopCache) Peek(string) (core.Verdict, bool) { return core.Verdict{}, false }
func (nopCache) Put(string, core.Verdict)         {}

// TestStoresLargerThanTheirCachesConverge: two stores behind caches that
// retain nothing run anti-entropy against each other. Each appends the
// other's records once; a record its store already holds is never
// appended again, so both logs stop growing after the second round
// instead of re-appending each other's suffix every round.
func TestStoresLargerThanTheirCachesConverge(t *testing.T) {
	const perNode = 20
	ids := []string{"a", "b"}
	var (
		replicas []*Replica
		stores   []*vstore.Store
		view     []NodeInfo
	)
	for _, id := range ids {
		st := openStore(t, t.TempDir())
		for j := 0; j < perNode; j++ {
			if st.Append(vd(fmt.Sprintf("%s-%d.example", id, j))) == 0 {
				t.Fatal("seed append failed")
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		r := NewReplica(ReplicaConfig{}, nopCache{}, st)
		mux := http.NewServeMux()
		r.Register(mux)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		replicas, stores = append(replicas, r), append(stores, st)
		view = append(view, NodeInfo{ID: id, Addr: strings.TrimPrefix(ts.URL, "http://"), State: StateAlive})
	}
	var peers []*Peer
	for i, r := range replicas {
		p := NewPeer("gateway.invalid:1", ids[i], view[i].Addr)
		p.view = ClusterView{Epoch: 1, Nodes: view}
		r.Attach(p)
		peers = append(peers, p)
	}

	wms := []map[string]uint64{{}, {}}
	var appends [][]uint64 // per round, per store
	for round := 1; round <= 3; round++ {
		var after []uint64
		for i, r := range replicas {
			if !r.syncRound(context.Background(), peers[i], wms[i]) {
				t.Fatalf("round %d on %s not clean: %+v", round, ids[i], r.Stats())
			}
			if err := stores[i].Sync(); err != nil { // the peer streams only durable records
				t.Fatal(err)
			}
		}
		for _, st := range stores {
			after = append(after, st.Stats().Appends)
		}
		appends = append(appends, after)
	}
	for i := range stores {
		if appends[2][i] != appends[1][i] {
			t.Fatalf("store %s still growing after round 2: appends per round %v", ids[i], appends)
		}
		if appends[2][i] != 2*perNode {
			t.Fatalf("store %s appended %d records, want its own %d plus the peer's %d once (per round %v)", ids[i], appends[2][i], perNode, perNode, appends)
		}
	}
}

// TestReplicaOfferShipsToOtherCandidate: a fresh verdict is queued for
// the key's other R=2 candidate and one flush delivers it as a frame the
// receiver ingests; with no peer Offer is inert, with nobody else in the
// ring it counts a drop.
func TestReplicaOfferShipsToOtherCandidate(t *testing.T) {
	a := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	b := startReplicaNode(t, ReplicaConfig{}, nil)

	a.r.Offer(vd("alone.example"))
	if st := a.r.Stats(); st.ReplicationDropped != 0 || len(a.r.ship.ch) != 0 {
		t.Fatalf("Offer without a peer: %+v, queue %d", st, len(a.r.ship.ch))
	}
	a.attach("a", 1, NodeInfo{ID: "a", Addr: a.addr, State: StateAlive})
	a.r.Offer(vd("alone.example"))
	if st := a.r.Stats(); st.ReplicationDropped != 1 {
		t.Fatalf("Offer into a one-node ring: dropped %d, want 1", st.ReplicationDropped)
	}

	a.attach("a", 2,
		NodeInfo{ID: "a", Addr: a.addr, State: StateAlive},
		NodeInfo{ID: "b", Addr: b.addr, State: StateAlive})
	for i := 0; i < shipBatchMax+10; i++ {
		a.r.Offer(vd(fmt.Sprintf("fresh-%d.example", i)))
	}
	a.r.ship.flush(context.Background())
	if st := a.r.Stats(); st.ReplicationOut != shipBatchMax+10 || st.ReplicationErrors != 0 {
		t.Fatalf("after flush: %+v, want %d out", st, shipBatchMax+10)
	}
	if st := b.r.Stats(); st.ReplicationIn != shipBatchMax+10 || b.cache.len() != shipBatchMax+10 {
		t.Fatalf("receiver: replicationIn %d, cached %d, want %d", st.ReplicationIn, b.cache.len(), shipBatchMax+10)
	}
}

// TestReplicaFetchProbesOnlyWhenAPeerCanHaveIt: before the first clean
// anti-entropy round every miss probes; afterwards a steady-state owner
// miss is a genuinely new key and goes straight to the detector, while
// failover traffic (self is only the replica) still probes.
func TestReplicaFetchProbesOnlyWhenAPeerCanHaveIt(t *testing.T) {
	other := startReplicaNode(t, ReplicaConfig{}, nil)
	var peeks atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peeks.Add(1)
		mux := http.NewServeMux()
		other.r.Register(mux)
		mux.ServeHTTP(w, r)
	}))
	defer counting.Close()

	self := startReplicaNode(t, ReplicaConfig{RepairTimeout: 5 * time.Second}, openStore(t, t.TempDir()))
	view := []NodeInfo{
		{ID: "self", Addr: self.addr, State: StateAlive},
		{ID: "other", Addr: strings.TrimPrefix(counting.URL, "http://"), State: StateAlive},
	}
	self.attach("self", 1, view...)
	var owned, replicated string
	for i := 0; owned == "" || replicated == ""; i++ {
		k := fmt.Sprintf("key-%d.example", i)
		if o, _ := NewRing(view).Owner(k); o.ID == "self" {
			owned = k
		} else {
			replicated = k
		}
	}
	other.cache.Put(owned, vd(owned))

	if v, ok := self.r.Fetch(owned); !ok || v.Domain != owned || peeks.Load() != 1 {
		t.Fatalf("fresh boot: Fetch(owned) = %v %v after %d peeks, want the peer's copy in one", v, ok, peeks.Load())
	}
	self.r.synced.Store(true)
	if _, ok := self.r.Fetch(owned); ok || peeks.Load() != 1 {
		t.Fatalf("steady-state owner probed: ok=%v, %d peeks", ok, peeks.Load())
	}
	if _, ok := self.r.Fetch(replicated); ok || peeks.Load() != 2 {
		t.Fatalf("failover miss: ok=%v after %d peeks, want a probe that misses", ok, peeks.Load())
	}
	if st := self.r.Stats(); st.RepairPeeks != 2 || st.RepairHits != 1 || st.RepairMisses != 1 {
		t.Fatalf("repair counters %+v, want 2 peeks, 1 hit, 1 miss", st)
	}
}

// TestStoreHandlersWithoutStore: a memory-only node refuses the
// anti-entropy feed (404, so peers treat it as storeless) but still
// accepts replication frames into its cache — a cache-only replica.
func TestStoreHandlersWithoutStore(t *testing.T) {
	n := startReplicaNode(t, ReplicaConfig{}, nil)

	rep, err := callWithin(context.Background(), 5*time.Second, http.MethodGet, n.addr, sincePath+"?seq=0", nil)
	if err != nil || rep.Status != 404 {
		t.Fatalf("since without store: %v %d, want 404", err, rep.Status)
	}
	if code, body := post(t, n.addr, replicatePath, replicateFrame(t, api.DetectResponse{Verdict: vd("mem-only.example")})); code != 200 || !strings.Contains(body, `"accepted":1`) {
		t.Fatalf("replicate without store: %d %q", code, body)
	}
	if code, body := post(t, n.addr, peekPath, `{"domain":"mem-only.example"}`); code != 200 || !strings.Contains(body, `"cached":true`) {
		t.Fatalf("cache-only replica not warm: %d %q", code, body)
	}
	if code, _ := post(t, n.addr, peekPath, `{"domain":"never.example"}`); code != 404 {
		t.Fatalf("peek cold: %d, want 404", code)
	}
}

// TestStoreSinceQueryValidation: ?seq= and ?max= arrive from other hosts,
// so a value that is not a whole decimal number is a 400 — never its
// numeric prefix — while a well-formed max outside 1..syncPageSize falls
// back to the full page.
func TestStoreSinceQueryValidation(t *testing.T) {
	st := openStore(t, t.TempDir())
	for i := 0; i < 3; i++ {
		if st.Append(vd(fmt.Sprintf("since-%d.example", i))) == 0 {
			t.Fatal("seed append failed")
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	n := startReplicaNode(t, ReplicaConfig{}, st)

	for _, tc := range []struct {
		query   string
		status  int
		records int // on 200
	}{
		{"", 200, 3},
		{"seq=", 200, 3},
		{"seq=1", 200, 2},
		{"seq=12abc", 400, 0},
		{"seq=-1", 400, 0},
		{"seq=1.5", 400, 0},
		{"seq=%2B1", 400, 0},
		{"seq=99999999999999999999", 400, 0},
		{"max=", 200, 3},
		{"max=2", 200, 2},
		{"max=2abc", 400, 0},
		{"max=abc", 400, 0},
		{"max=0", 200, 3},
		{"max=-1", 200, 3},
		{"max=999999", 200, 3},
		{"seq=1&max=1", 200, 1},
	} {
		rep, err := callWithin(context.Background(), 5*time.Second, http.MethodGet, n.addr, sincePath+"?"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Records []json.RawMessage `json:"records"`
		}
		err = json.Unmarshal(rep.Body, &page)
		if rep.Status != tc.status {
			t.Errorf("since?%s: status %d, want %d", tc.query, rep.Status, tc.status)
			continue
		}
		if tc.status == 200 && (err != nil || len(page.Records) != tc.records) {
			t.Errorf("since?%s: %d records (decode err %v), want %d", tc.query, len(page.Records), err, tc.records)
		}
	}
}

// TestRepairFetchBreaker drives read-repair probes at a failing peer
// under an injected clock: two failed peeks silence the peer, the
// cooldown admits exactly one probe, and its success closes the breaker.
func TestRepairFetchBreaker(t *testing.T) {
	var (
		hits    atomic.Int64
		healthy atomic.Bool
		entered = make(chan struct{}, 1)
		release = make(chan struct{})
	)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		select {
		case entered <- struct{}{}:
			<-release // hold the half-open probe in flight
		default:
		}
		http.Error(w, "not cached", http.StatusNotFound)
	}))
	defer peer.Close()

	var now atomic.Int64 // fake clock, nanoseconds
	self := startReplicaNode(t, ReplicaConfig{
		RepairTimeout: 5 * time.Second,
		Now:           func() time.Time { return time.Unix(0, now.Load()) },
	}, openStore(t, t.TempDir()))
	self.attach("self", 1,
		NodeInfo{ID: "self", Addr: "self.invalid:1", State: StateAlive},
		NodeInfo{ID: "other", Addr: strings.TrimPrefix(peer.URL, "http://"), State: StateAlive})

	probe := func(key string, wantHits int64, why string) {
		t.Helper()
		if _, ok := self.r.Fetch(key); ok {
			t.Fatalf("%s: Fetch(%s) returned a verdict", why, key)
		}
		if got := hits.Load(); got != wantHits {
			t.Fatalf("%s: peer saw %d peeks, want %d", why, got, wantHits)
		}
	}
	probe("a.example", 1, "first failure")
	probe("b.example", 2, "second failure opens the breaker")
	probe("c.example", 2, "open breaker")
	now.Add(int64(2*time.Second) - 1)
	probe("d.example", 2, "cooldown not over")

	// Cooldown over: one probe goes out; while it is in flight nobody
	// else may probe.
	now.Add(1)
	healthy.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		self.r.Fetch("e.example")
	}()
	<-entered
	probe("f.example", 3, "half-open probe in flight")
	close(release)
	<-done

	probe("g.example", 4, "closed after the probe succeeded")
	probe("h.example", 5, "closed")
	if m := self.r.Stats().RepairPeeks; m != 5 {
		t.Fatalf("repairPeeks = %d, want 5 (skipped probes must not count)", m)
	}
}
