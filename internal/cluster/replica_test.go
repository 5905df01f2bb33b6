package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
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
	"idnlab/internal/framelog"
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

// recordFrames encodes results as store record frames with seqs from
// first up — the body of a replicate POST and the tail of a since page.
// A store only ever writes verdicts; tests also frame what it never
// writes (an error response) to see the receiver refuse it.
func recordFrames(t testing.TB, first uint64, results ...api.DetectResponse) string {
	t.Helper()
	var body []byte
	for i := range results {
		payload, err := api.AppendDetectResponse(binary.LittleEndian.AppendUint64(nil, first+uint64(i)), &results[i])
		if err != nil {
			t.Fatal(err)
		}
		body = framelog.AppendFrame(body, payload)
	}
	return string(body)
}

func replicateFrame(t testing.TB, results ...api.DetectResponse) string {
	t.Helper()
	return recordFrames(t, 1, results...)
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

// TestReplicaRoundTrip carries verdicts through both peer bodies once:
// a replicate body into node a (already-cached keys skipped, a body
// carrying an error response refused whole, nothing re-appended), a's
// since feed into node b's anti-entropy round, which keeps only what b
// is an R=2 candidate for — and b's cursor, which survives a restart and
// a corrupt peers.json.
func TestReplicaRoundTrip(t *testing.T) {
	a := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	a.cache.Put("warm.example", vd("warm.example"))

	var results []api.DetectResponse
	for i := 0; i < 40; i++ {
		results = append(results, api.DetectResponse{Verdict: vd(fmt.Sprintf("repl-%d.example", i))})
	}
	results = append(results, api.DetectResponse{Verdict: vd("warm.example")})
	if code, body := post(t, a.addr, replicatePath, replicateFrame(t, results...)); code != 200 || !strings.Contains(body, `"accepted":40`) {
		t.Fatalf("replicate: %d %q", code, body)
	}
	// An error response is not a record: the body carrying one is refused
	// whole, its good record with it.
	bad := replicateFrame(t, api.DetectResponse{Verdict: vd("good.example")},
		api.DetectResponse{Verdict: vd("errored.example"), Error: "shed"})
	if code, _ := post(t, a.addr, replicatePath, bad); code != 400 {
		t.Fatalf("replicate with an error response: %d, want 400", code)
	}
	if _, ok := a.cache.Peek("good.example"); ok {
		t.Fatal("a refused body was partly ingested")
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

	a.r.Offer(1, vd("alone.example"))
	if st := a.r.Stats(); st.ReplicationDropped != 0 || len(a.r.ship.ch) != 0 {
		t.Fatalf("Offer without a peer: %+v, queue %d", st, len(a.r.ship.ch))
	}
	a.attach("a", 1, NodeInfo{ID: "a", Addr: a.addr, State: StateAlive})
	a.r.Offer(1, vd("alone.example"))
	if st := a.r.Stats(); st.ReplicationDropped != 1 {
		t.Fatalf("Offer into a one-node ring: dropped %d, want 1", st.ReplicationDropped)
	}

	a.attach("a", 2,
		NodeInfo{ID: "a", Addr: a.addr, State: StateAlive},
		NodeInfo{ID: "b", Addr: b.addr, State: StateAlive})
	for i := 0; i < shipBatchMax+10; i++ {
		a.r.Offer(uint64(i+1), vd(fmt.Sprintf("fresh-%d.example", i)))
	}
	a.r.ship.flush(context.Background())
	if st := a.r.Stats(); st.ReplicationOut != shipBatchMax+10 || st.ReplicationErrors != 0 {
		t.Fatalf("after flush: %+v, want %d out", st, shipBatchMax+10)
	}
	if st := b.r.Stats(); st.ReplicationIn != shipBatchMax+10 || b.cache.len() != shipBatchMax+10 {
		t.Fatalf("receiver: replicationIn %d, cached %d, want %d", st.ReplicationIn, b.cache.len(), shipBatchMax+10)
	}
}

// TestStoreHandlersWithoutStore: a memory-only node refuses the
// anti-entropy feed (404, so peers treat it as storeless) but still
// accepts replication frames into its cache — a cache-only replica.
// No peer endpoint answers a cache lookup.
func TestStoreHandlersWithoutStore(t *testing.T) {
	n := startReplicaNode(t, ReplicaConfig{}, nil)

	rep, err := callWithin(context.Background(), 5*time.Second, http.MethodGet, n.addr, sincePath+"?seq=0", nil)
	if err != nil || rep.Status != 404 {
		t.Fatalf("since without store: %v %d, want 404", err, rep.Status)
	}
	if code, body := post(t, n.addr, replicatePath, replicateFrame(t, api.DetectResponse{Verdict: vd("mem-only.example")})); code != 200 || !strings.Contains(body, `"accepted":1`) {
		t.Fatalf("replicate without store: %d %q", code, body)
	}
	if _, ok := n.cache.Peek("mem-only.example"); !ok {
		t.Fatal("cache-only replica not warm after a replicate frame")
	}
	if code, _ := post(t, n.addr, "/v1/store/peek", `{"domain":"mem-only.example"}`); code != 404 {
		t.Fatalf("POST /v1/store/peek: %d, want 404 (not routed)", code)
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
		if rep.Status != tc.status {
			t.Errorf("since?%s: status %d, want %d", tc.query, rep.Status, tc.status)
			continue
		}
		if tc.status != 200 {
			continue
		}
		var recs []vstore.Record
		if len(rep.Body) < sinceHeader {
			err = fmt.Errorf("%d-byte body", len(rep.Body))
		} else {
			recs, err = vstore.DecodeFrames(rep.Body[sinceHeader:])
		}
		if err != nil || len(recs) != tc.records {
			t.Errorf("since?%s: %d records (decode err %v), want %d", tc.query, len(recs), err, tc.records)
		}
	}
}

// sincePage builds a since body: the header, then frames as they are.
func sincePage(durable uint64, more bool, frames ...string) string {
	hdr := binary.LittleEndian.AppendUint64(nil, durable)
	if more {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	return string(hdr) + strings.Join(frames, "")
}

// TestSincePageRefusals: since pages come from another host, so a page
// is checked whole before any record is ingested. A refused page leaves
// the cursor where it was and ingests nothing; a durable mark below the
// cursor (the peer's log restarted) resets the cursor and ends the round.
func TestSincePageRefusals(t *testing.T) {
	rec := func(seq uint64, domain string) string {
		return recordFrames(t, seq, api.DetectResponse{Verdict: vd(domain)})
	}
	page := sincePage
	good := rec(4, "a.example")
	badCRC := []byte(good)
	badCRC[len(badCRC)-1] ^= 1
	notARecord := string(framelog.AppendFrame(nil, append(binary.LittleEndian.AppendUint64(nil, 4), `{"domain":`...)))
	ring := NewRing([]NodeInfo{{ID: "self", State: StateAlive}, {ID: "peer", State: StateAlive}})
	for _, tc := range []struct {
		name     string
		body     string
		after    uint64
		next     uint64
		more     bool
		err      bool
		ingested int
	}{
		{"a full page continues from its last record", page(9, true, rec(4, "a.example"), rec(5, "b.example")), 3, 5, true, false, 2},
		{"the last page moves the cursor to durable", page(9, false, rec(4, "a.example")), 3, 9, false, false, 1},
		{"a record past durable is refused", page(1, true, rec(7, "ahead.example")), 0, 0, false, true, 0},
		{"more with no records is refused", page(9, true), 3, 3, false, true, 0},
		{"a record at the cursor is refused", page(9, true, rec(3, "a.example")), 3, 3, false, true, 0},
		{"a record below the cursor is refused", page(9, true, rec(4, "a.example"), rec(2, "b.example")), 3, 3, false, true, 0},
		{"a repeated seq is refused", page(9, false, rec(4, "a.example"), rec(4, "b.example")), 3, 3, false, true, 0},
		{"durable below the cursor resets it to 0", page(2, false), 8, 0, false, false, 0},
		{"a frame failing its CRC is refused", page(9, false, rec(5, "b.example"), string(badCRC)), 3, 3, false, true, 0},
		{"a short final frame is refused", page(9, false, rec(5, "b.example"), good[:len(good)-1]), 3, 3, false, true, 0},
		{"bytes after the last frame are refused", page(9, false, good, "\x00"), 3, 3, false, true, 0},
		{"a payload that is not a record is refused", page(9, false, rec(5, "b.example"), notARecord), 3, 3, false, true, 0},
		{"an error response is refused", page(9, false, recordFrames(t, 4, api.DetectResponse{Verdict: vd("e.example"), Error: "shed"})), 3, 3, false, true, 0},
		{"a short header is refused", page(9, false)[:sinceHeader-1], 3, 3, false, true, 0},
		{"a more byte other than 0 or 1 is refused", page(9, false)[:sinceHeader-1] + "\x02" + good, 3, 3, false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := newMapCache()
			r := NewReplica(ReplicaConfig{}, cache, nil)
			next, more, err := r.ingestPage([]byte(tc.body), ring, "self", tc.after)
			if (err != nil) != tc.err || next != tc.next || more != tc.more || cache.len() != tc.ingested {
				t.Fatalf("ingestPage(after %d) = next %d, more %v, err %v, %d ingested; want next %d, more %v, err %v, %d ingested",
					tc.after, next, more, err, cache.len(), tc.next, tc.more, tc.err, tc.ingested)
			}
		})
	}
}

// TestSyncPeerStopsOnAnEmptyContinuedPage: a peer that answers every
// fetch with more and no records costs one GET per round, not one per
// page of the round's budget.
func TestSyncPeerStopsOnAnEmptyContinuedPage(t *testing.T) {
	var gets atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		io.WriteString(w, sincePage(9, true))
	}))
	defer peer.Close()
	self := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	view := []NodeInfo{
		{ID: "self", Addr: self.addr, State: StateAlive},
		{ID: "peer", Addr: strings.TrimPrefix(peer.URL, "http://"), State: StateAlive},
	}
	wm := map[string]uint64{"peer": 3}
	if self.r.syncPeer(context.Background(), NewRing(view), "self", view[1], wm) {
		t.Fatal("a round over a page that cannot advance reported clean")
	}
	if gets.Load() != 1 || wm["peer"] != 3 {
		t.Fatalf("%d GETs, cursor %d; want 1 GET and the cursor left at 3", gets.Load(), wm["peer"])
	}
}

// TestSyncAfterPeerStoreWiped: a peer whose store directory was wiped
// restarts its log at seq 1. The node's cursor for it is past the new
// log's end; the next round must stream the new log from the start, not
// resume at the peer's new durable mark.
func TestSyncAfterPeerStoreWiped(t *testing.T) {
	a := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	for i := 0; i < 5; i++ {
		if a.store.Append(vd(fmt.Sprintf("wiped-%d.example", i))) == 0 {
			t.Fatal("seed append failed")
		}
	}
	if err := a.store.Sync(); err != nil {
		t.Fatal(err)
	}
	b := startReplicaNode(t, ReplicaConfig{}, openStore(t, t.TempDir()))
	// Two nodes: b is a candidate for every key, so it ingests all of a's.
	p := b.attach("b", 1,
		NodeInfo{ID: "a", Addr: a.addr, State: StateAlive},
		NodeInfo{ID: "b", Addr: b.addr, State: StateAlive})
	wm := map[string]uint64{"a": 40} // a's log before the wipe ran to 40
	b.r.syncRound(context.Background(), p, wm)
	if wm["a"] != 0 || b.cache.len() != 0 {
		t.Fatalf("round against the wiped peer: cursor %d, %d ingested; want the cursor reset to 0 and nothing ingested", wm["a"], b.cache.len())
	}
	if !b.r.syncRound(context.Background(), p, wm) {
		t.Fatalf("re-stream round not clean: %+v", b.r.Stats())
	}
	if wm["a"] != 5 || b.cache.len() != 5 {
		t.Fatalf("after the re-stream: cursor %d, %d ingested; want 5 and 5", wm["a"], b.cache.len())
	}
}
