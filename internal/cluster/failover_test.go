// Integration tests for the distribution tier: a real gateway fronting
// real serve.Server workers over loopback HTTP, including the
// kill-a-worker failover drill the subsystem exists for. External test
// package so it can import internal/serve (which itself imports
// internal/cluster for the peer wire types).
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idnlab/internal/cluster"
	"idnlab/internal/feat"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
)

// assertNoLeakedGoroutines retries until the goroutine count settles at
// or below the baseline (same contract as the pipeline test helper).
func assertNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after settle", before, now)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testCluster is a gateway plus N workers wired together over loopback.
type testCluster struct {
	t       *testing.T
	gw      *cluster.Gateway
	gwURL   string
	gwStop  context.CancelFunc
	gwDone  chan error
	workers []*testWorker
	client  *http.Client
	tr      *http.Transport
	// stat, when set before addWorker, boots workers with the
	// statistical model attached (ensemble verdicts end to end).
	stat *feat.Model
	// storeRoot, when set before addWorker, gives every worker a
	// durable verdict store at <storeRoot>/<id> — a worker restarted
	// under the same ID reopens its own log and boots warm.
	storeRoot string
}

type testWorker struct {
	id       string
	srv      *serve.Server
	ts       *httptest.Server
	peer     *cluster.Peer
	peerStop context.CancelFunc
	peerDone chan struct{}
	syncDone chan struct{} // non-nil when the replica is running
}

// startCluster boots a gateway (fast failure-detection windows) and n
// workers that register through the real peer heartbeat loop.
func startCluster(t *testing.T, n int, minReady int) *testCluster {
	t.Helper()
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}
	tc := &testCluster{
		t:      t,
		tr:     tr,
		client: &http.Client{Timeout: 5 * time.Second, Transport: tr},
	}
	cfg := cluster.GatewayConfig{
		NodeID: "gw-test",
		// A silent worker turns suspect after 600ms and dead after 2s.
		Membership: cluster.MembershipConfig{HeartbeatInterval: 200 * time.Millisecond},
		Router:     cluster.RouterConfig{Client: &http.Client{Transport: tr}},
		MinReady:   minReady,
	}
	tc.gw = cluster.NewGateway(cfg)
	gwCtx, gwStop := context.WithCancel(context.Background())
	tc.gwStop = gwStop
	tc.gwDone = make(chan error, 1)
	ready := make(chan net.Addr, 1)
	go func() { tc.gwDone <- tc.gw.Run(gwCtx, "127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		tc.gwURL = "http://" + addr.String()
	case err := <-tc.gwDone:
		t.Fatalf("gateway failed to start: %v", err)
	}

	for i := 0; i < n; i++ {
		tc.addWorker(fmt.Sprintf("w%d", i))
	}
	waitFor(t, 3*time.Second, "all workers alive", func() bool {
		return tc.gw.Membership().AliveCount() == n
	})
	return tc
}

// addWorker boots one serve.Server behind httptest and joins it to the
// gateway through a real peer loop.
func (tc *testCluster) addWorker(id string) *testWorker {
	tc.t.Helper()
	cfg := serve.Config{NodeID: id, TopK: 100, Workers: 2, Stat: tc.stat}
	if tc.storeRoot != "" {
		st, err := vstore.Open(vstore.Config{Dir: filepath.Join(tc.storeRoot, id)})
		if err != nil {
			tc.t.Fatalf("open store for %s: %v", id, err)
		}
		cfg.Store = st
		// A fast anti-entropy cadence: the churn test needs it to
		// converge inside the test window, not the production 15s.
		cfg.Replica = cluster.ReplicaConfig{SyncInterval: 250 * time.Millisecond}
	}
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	p := cluster.NewPeer(tc.gwURL, id, addr)
	srv.AttachPeer(p)
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()
	w := &testWorker{id: id, srv: srv, ts: ts, peer: p, peerStop: stop, peerDone: done}
	if cfg.Store != nil {
		w.syncDone = make(chan struct{})
		go func() { defer close(w.syncDone); srv.Replica().Run(ctx) }()
	}
	tc.workers = append(tc.workers, w)
	return w
}

// workerByID returns the most recent worker registered under id (a
// restarted worker appends a fresh entry under the old identity).
func (tc *testCluster) workerByID(id string) *testWorker {
	tc.t.Helper()
	for i := len(tc.workers) - 1; i >= 0; i-- {
		if tc.workers[i].id == id {
			return tc.workers[i]
		}
	}
	tc.t.Fatalf("no worker %s", id)
	return nil
}

// storeStats scrapes one worker's /metrics store block directly.
func (tc *testCluster) storeStats(w *testWorker) serve.StoreStats {
	tc.t.Helper()
	resp, err := tc.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		tc.t.Fatalf("worker %s metrics: %v", w.id, err)
	}
	defer resp.Body.Close()
	var m struct {
		Store serve.StoreStats `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		tc.t.Fatalf("worker %s metrics decode: %v", w.id, err)
	}
	return m.Store
}

// kill simulates a crashed worker: the peer stops heartbeating and the
// listener drops every connection.
func (w *testWorker) kill() {
	w.peerStop()
	<-w.peerDone
	if w.syncDone != nil {
		<-w.syncDone
	}
	w.ts.CloseClientConnections()
	w.ts.Close()
	// In-process "SIGKILL" needs the old incarnation's file handles and
	// committer goroutine released before a restart reopens the same
	// directory; torn-tail crash semantics are covered byte-for-byte by
	// the vstore recovery tests.
	if err := w.srv.CloseStore(); err != nil {
		panic(err)
	}
}

// shutdown tears the whole cluster down in reverse order.
func (tc *testCluster) shutdown(killed map[string]bool) {
	for _, w := range tc.workers {
		if killed[w.id] {
			continue
		}
		w.peerStop()
		<-w.peerDone
		if w.syncDone != nil {
			<-w.syncDone
		}
		w.ts.CloseClientConnections()
		w.ts.Close()
		if err := w.srv.CloseStore(); err != nil {
			tc.t.Errorf("close store %s: %v", w.id, err)
		}
	}
	tc.gwStop()
	if err := <-tc.gwDone; err != nil {
		tc.t.Errorf("gateway run: %v", err)
	}
	tc.tr.CloseIdleConnections()
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections()
	}
}

func (tc *testCluster) post(path, body string) (int, string) {
	tc.t.Helper()
	resp, err := tc.client.Post(tc.gwURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		tc.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func (tc *testCluster) get(path string) (int, string) {
	tc.t.Helper()
	resp, err := tc.client.Get(tc.gwURL + path)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// nodeState extracts a node's state from the gateway's /clusterz body.
func (tc *testCluster) nodeState(id string) string {
	_, body := tc.get("/clusterz")
	var view struct {
		Nodes []cluster.NodeInfo `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		return ""
	}
	for _, n := range view.Nodes {
		if n.ID == id {
			return string(n.State)
		}
	}
	return ""
}

func TestGatewayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	tc := startCluster(t, 3, 2)
	defer assertNoLeakedGoroutines(t, before)
	defer tc.shutdown(nil)

	// Readiness: enough workers joined via real peer heartbeats.
	if code, body := tc.get("/readyz"); code != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz: %d %q", code, body)
	}

	// Homograph detection end-to-end through the routing tier.
	code, body := tc.post("/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	if code != 200 || !strings.Contains(body, `"flagged":true`) {
		t.Fatalf("detect via gateway: %d %q", code, body)
	}
	// Deterministic ownership: the repeat hits the same worker's cache.
	if code, body := tc.post("/v1/detect", `{"domain":"xn--pple-43d.com"}`); code != 200 || !strings.Contains(body, `"cached":true`) {
		t.Fatalf("detect repeat not cached: %d %q", code, body)
	}
	// Invalid domains are answered at the gateway edge with 400.
	if code, _ := tc.post("/v1/detect", `{"domain":"exa mple.com"}`); code != 400 {
		t.Fatalf("invalid domain: %d, want 400", code)
	}

	// Batch: split across owners, reassembled in request order, invalid
	// entries answered locally with per-item errors.
	domains := []string{"xn--pple-43d.com", "bad..domain", "example.com", "label-7.com", "label-8.com"}
	reqBody, _ := json.Marshal(map[string][]string{"domains": domains})
	code, body = tc.post("/v1/detect/batch", string(reqBody))
	if code != 200 {
		t.Fatalf("batch: %d %q", code, body)
	}
	var br struct {
		Count   int `json:"count"`
		Results []struct {
			Input string `json:"input,omitempty"`
			Error string `json:"error,omitempty"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &br); err != nil || br.Count != 5 || len(br.Results) != 5 {
		t.Fatalf("batch shape: %v %q", err, body)
	}
	if br.Results[1].Error == "" || br.Results[1].Input != "bad..domain" {
		t.Fatalf("invalid entry not answered in place: %+v", br.Results[1])
	}

	// Oversized batches are rejected at the edge.
	over, _ := json.Marshal(map[string][]string{"domains": make([]string, 1000)})
	if code, _ := tc.post("/v1/detect/batch", string(over)); code != 413 {
		t.Fatalf("oversized batch: %d, want 413", code)
	}

	// Join validation.
	if code, _ := tc.post("/v1/join", `{"id":"x"}`); code != 400 {
		t.Fatalf("join without addr: %d, want 400", code)
	}
	if code, _ := tc.post("/v1/join", `{"id":"x","addr":"not-an-addr"}`); code != 400 {
		t.Fatalf("join with bad addr: %d, want 400", code)
	}

	// Merged metrics: gateway counters + aggregated worker cache stats.
	if code, body := tc.get("/metrics"); code != 200 ||
		!strings.Contains(body, `"cluster"`) || !strings.Contains(body, `"hits"`) ||
		!strings.Contains(body, `"partitionedCache":true`) {
		t.Fatalf("metrics: %d %q", code, body)
	}

	// The worker side of membership: each worker's /clusterz shows the
	// epoch-stamped view it pulled on its last heartbeat.
	wts := tc.workers[0].ts
	resp, err := tc.client.Get(wts.URL + "/clusterz")
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(wb), `"mode":"peer"`) || !strings.Contains(string(wb), `"joined":true`) {
		t.Fatalf("worker clusterz: %q", wb)
	}
}

func TestGatewayUnreadyWithoutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	tc := startCluster(t, 0, 1)
	defer assertNoLeakedGoroutines(t, before)
	defer tc.shutdown(nil)

	if code, body := tc.get("/readyz"); code != 503 || !strings.Contains(body, `"unready"`) {
		t.Fatalf("readyz with no workers: %d %q", code, body)
	}
	if code, _ := tc.get("/healthz"); code != 200 {
		t.Fatal("healthz should stay 200 while unready")
	}
	if code, _ := tc.post("/v1/detect", `{"domain":"example.com"}`); code != 503 {
		t.Fatal("detect with empty ring should 503")
	}
}

// TestClusterFailover is the drill: three workers under live load, one
// killed mid-stream. Requirements — zero client-visible errors (429 is
// back-pressure, not an error), the dead worker's state reflected in
// /clusterz within the failure-detection window, survivors absorbing
// the key range, and no goroutine leaks after teardown.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	tc := startCluster(t, 3, 2)
	killed := map[string]bool{"w0": true}
	defer assertNoLeakedGoroutines(t, before)
	defer tc.shutdown(killed)

	// Load mix: zipf-ish repetition of a small label set (cache hits)
	// plus per-request uniques (detector work), singles and batches.
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		total     atomic.Uint64
		shed      atomic.Uint64
		badStatus atomic.Uint64
		transport atomic.Uint64
	)
	classify := func(code int, err error) {
		total.Add(1)
		switch {
		case err != nil:
			transport.Add(1)
		case code == 429:
			shed.Add(1)
		case code < 200 || code >= 300:
			badStatus.Add(1)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%5 == 4 {
					domains := []string{
						"xn--pple-43d.com",
						fmt.Sprintf("label-%d.com", i%97),
						fmt.Sprintf("uniq-%d-%d.com", g, i),
					}
					b, _ := json.Marshal(map[string][]string{"domains": domains})
					resp, err := tc.client.Post(tc.gwURL+"/v1/detect/batch", "application/json", bytes.NewReader(b))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						classify(resp.StatusCode, nil)
					} else {
						classify(0, err)
					}
					continue
				}
				b, _ := json.Marshal(map[string]string{"domain": fmt.Sprintf("label-%d.com", i%211)})
				resp, err := tc.client.Post(tc.gwURL+"/v1/detect", "application/json", bytes.NewReader(b))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					classify(resp.StatusCode, nil)
				} else {
					classify(0, err)
				}
			}
		}(g)
	}

	// Let the load warm up, then kill w0 mid-stream.
	time.Sleep(400 * time.Millisecond)
	killedAt := time.Now()
	tc.workers[0].kill()

	// Failure detection: proxy-failure feedback (three failures) must
	// demote w0 to dead well inside the heartbeat-timer window.
	waitFor(t, 2*time.Second, "w0 demoted to dead", func() bool {
		return tc.nodeState("w0") == "dead"
	})
	detectLatency := time.Since(killedAt)

	// Keep loading on the survivors for a while after reassignment.
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	t.Logf("failover: %d requests, %d shed(429), %d bad status, %d transport errors; death detected in %s",
		total.Load(), shed.Load(), badStatus.Load(), transport.Load(), detectLatency)
	if total.Load() < 50 {
		t.Fatalf("load harness barely ran: %d requests", total.Load())
	}
	if badStatus.Load() != 0 || transport.Load() != 0 {
		t.Fatalf("client-visible errors during failover: %d bad status, %d transport",
			badStatus.Load(), transport.Load())
	}

	// Survivors still serve, readiness holds at 2/3, and the keyspace is
	// fully owned: the dead node's range reassigned.
	if code, _ := tc.get("/readyz"); code != 200 {
		t.Fatal("cluster unready after losing 1 of 3 workers")
	}
	if code, body := tc.post("/v1/detect", `{"domain":"xn--pple-43d.com"}`); code != 200 || !strings.Contains(body, `"flagged":true`) {
		t.Fatalf("post-failover detect: %d %q", code, body)
	}
	var st struct {
		RingSize int `json:"ringSize"`
	}
	_, body := tc.get("/clusterz")
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.RingSize != 2 {
		t.Fatalf("ring did not shrink to survivors: %v %q", err, body)
	}
}

// TestWorkerResurrection closes the loop: a worker that comes back (same
// ID) reclaims exactly its old key range because rendezvous placement
// depends only on node IDs.
func TestWorkerResurrection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	tc := startCluster(t, 2, 1)
	defer assertNoLeakedGoroutines(t, before)
	killed := map[string]bool{"w0": true}
	defer func() { tc.shutdown(killed) }()

	tc.workers[0].kill()
	// Drive traffic so proxy feedback (not just timers) sees the death.
	waitFor(t, 3*time.Second, "w0 dead", func() bool {
		tc.post("/v1/detect", `{"domain":"example.com"}`)
		return tc.nodeState("w0") == "dead"
	})

	// Same ID, new listener: rejoin resurrects in place.
	w := tc.addWorker("w0")
	waitFor(t, 2*time.Second, "w0 resurrected", func() bool {
		return tc.nodeState("w0") == "alive"
	})
	_ = w
	killed["w0"] = false
	var st struct {
		RingSize int `json:"ringSize"`
	}
	_, body := tc.get("/clusterz")
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.RingSize != 2 {
		t.Fatalf("ring after resurrection: %v %q", err, body)
	}
}

// TestClusterChurnTenWorkers is the scaled drill the durable store
// exists for: ten workers with per-node warm logs under sustained load
// while half the fleet is rolled through kill + rejoin one node at a
// time. Requirements — zero non-429 client-visible errors across the
// whole churn, every restarted worker boots warm from its own log, the
// gateway's aggregated store block counts all ten durable nodes again
// once the roll completes, and no goroutine leaks after teardown.
func TestClusterChurnTenWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	const n = 10
	tc := startCluster(t, 0, n-2)
	tc.storeRoot = t.TempDir()
	for i := 0; i < n; i++ {
		tc.addWorker(fmt.Sprintf("w%d", i))
	}
	waitFor(t, 5*time.Second, "all 10 workers alive", func() bool {
		return tc.gw.Membership().AliveCount() == n
	})
	defer assertNoLeakedGoroutines(t, before)
	defer tc.shutdown(nil)

	// Same load mix and error taxonomy as TestClusterFailover: repeated
	// labels (cache traffic, the store's bread and butter) plus uniques
	// (detector work), singles and batches, 429 counted as back-pressure.
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		total     atomic.Uint64
		shed      atomic.Uint64
		badStatus atomic.Uint64
		transport atomic.Uint64
	)
	classify := func(code int, err error) {
		total.Add(1)
		switch {
		case err != nil:
			transport.Add(1)
		case code == 429:
			shed.Add(1)
		case code < 200 || code >= 300:
			badStatus.Add(1)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%5 == 4 {
					domains := []string{
						"xn--pple-43d.com",
						fmt.Sprintf("label-%d.com", i%97),
						fmt.Sprintf("uniq-%d-%d.com", g, i),
					}
					b, _ := json.Marshal(map[string][]string{"domains": domains})
					resp, err := tc.client.Post(tc.gwURL+"/v1/detect/batch", "application/json", bytes.NewReader(b))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						classify(resp.StatusCode, nil)
					} else {
						classify(0, err)
					}
					continue
				}
				b, _ := json.Marshal(map[string]string{"domain": fmt.Sprintf("label-%d.com", i%211)})
				resp, err := tc.client.Post(tc.gwURL+"/v1/detect", "application/json", bytes.NewReader(b))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					classify(resp.StatusCode, nil)
				} else {
					classify(0, err)
				}
			}
		}(g)
	}

	// Warm the fleet, then roll kill + rejoin through half of it. Each
	// cycle waits for death detection and for the resurrected node to
	// rejoin before moving on — a rolling restart, not a massacre.
	time.Sleep(400 * time.Millisecond)
	const churn = 5
	for i := 0; i < churn; i++ {
		id := fmt.Sprintf("w%d", i)
		tc.workerByID(id).kill()
		waitFor(t, 3*time.Second, id+" demoted to dead", func() bool {
			return tc.nodeState(id) == "dead"
		})
		tc.addWorker(id)
		waitFor(t, 3*time.Second, id+" rejoined alive", func() bool {
			return tc.nodeState(id) == "alive"
		})
	}
	// Let the rejoined nodes run at least one anti-entropy round.
	time.Sleep(600 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	t.Logf("churn: %d requests, %d shed(429), %d bad status, %d transport errors",
		total.Load(), shed.Load(), badStatus.Load(), transport.Load())
	if total.Load() < 200 {
		t.Fatalf("load harness barely ran: %d requests", total.Load())
	}
	if badStatus.Load() != 0 || transport.Load() != 0 {
		t.Fatalf("client-visible errors during rolling churn: %d bad status, %d transport",
			badStatus.Load(), transport.Load())
	}

	// Every churned worker must have rebooted warm from its own log —
	// that is the store's whole promise — and run anti-entropy since.
	for i := 0; i < churn; i++ {
		w := tc.workerByID(fmt.Sprintf("w%d", i))
		st := tc.storeStats(w)
		if !st.Loaded {
			t.Fatalf("%s restarted without its store", w.id)
		}
		if st.WarmBootEntries == 0 {
			t.Errorf("%s rebooted cold: 0 warm-boot entries", w.id)
		}
		waitFor(t, 3*time.Second, w.id+" completed an anti-entropy round", func() bool {
			return tc.storeStats(w).SyncRounds > 0
		})
	}

	// The gateway's merged metrics see the full durable tier again, and
	// warm boots registered cluster-wide.
	_, body := tc.get("/metrics")
	var m struct {
		Cluster struct {
			Store struct {
				DurableNodes    int `json:"durableNodes"`
				WarmBootEntries int `json:"warmBootEntries"`
			} `json:"store"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("gateway metrics decode: %v %q", err, body)
	}
	if m.Cluster.Store.DurableNodes != n {
		t.Fatalf("gateway sees %d durable nodes, want %d", m.Cluster.Store.DurableNodes, n)
	}
	if m.Cluster.Store.WarmBootEntries == 0 {
		t.Fatal("no warm-boot entries registered cluster-wide after a 5-node roll")
	}

	// Rejoins surfaced through the membership hook.
	if code, body := tc.get("/metrics"); code != 200 || !strings.Contains(body, `"rejoins":`) {
		t.Fatalf("gateway metrics missing rejoin counter: %d %q", code, body)
	}
}
