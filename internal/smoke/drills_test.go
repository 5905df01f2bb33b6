//go:build smoke

package smoke

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idnlab/internal/proctest"
)

// Each drill replaces one of the former shell smoke scripts, named in
// its comment; the other comments name the script assertion a check
// carries over.

// TestServe (serve_smoke.sh): boot idnserve on an ephemeral port, fire
// the request set, drain on SIGTERM.
func TestServe(t *testing.T) {
	srv, addr := start(t, "idnserve", "idnserve", "-listen", "127.0.0.1:0", "-brands", "1000")
	requestSet(t, addr)
	drain(t, srv) // exit 0 + "drained cleanly"
}

// cluster boots a gateway (fast heartbeats, so a kill is noticed without
// traffic too) and two self-registering workers, and waits for quorum.
func cluster(t *testing.T) (gw *proctest.Proc, gwAddr string, w1, w2 *proctest.Proc) {
	t.Helper()
	gw, gwAddr = start(t, "idngateway", "idngateway", "-listen", "127.0.0.1:0", "-heartbeat", "200ms", "-min-ready", "2")
	w1, _ = start(t, "w1", "idnserve", "-listen", "127.0.0.1:0", "-brands", "1000", "-node", "w1", "-join", gwAddr)
	w2, _ = start(t, "w2", "idnserve", "-listen", "127.0.0.1:0", "-brands", "1000", "-node", "w2", "-join", gwAddr)
	waitServing(t, gw, 2)
	return gw, gwAddr, w1, w2
}

// TestCluster (cluster_smoke.sh): the request set through the routing
// tier, a worker SIGKILL, the request set again on the survivor; then
// the kill under live singles load.
func TestCluster(t *testing.T) {
	// phase 1: the killed worker's key range must reassign with no
	// client-visible error — the request set right after the kill is
	// the assertion.
	t.Run("plain", func(t *testing.T) {
		gw, gwAddr, w1, w2 := cluster(t)
		requestSet(t, gwAddr)
		w1.Kill() // no drain, no goodbye
		requestSet(t, gwAddr)
		drain(t, w2, gw)
	})

	// phase 2: singles in flight to a dead worker must retry or fail
	// over: a singles-only load runs through the SIGKILL and must end
	// with zero non-429 errors ("error-rate: 0.00%").
	t.Run("load", func(t *testing.T) {
		gw, gwAddr, w1, w2 := cluster(t)
		c := newCorpus(t, 1, 2000)
		done := make(chan loadResult, 1)
		go func() { done <- c.load(gwAddr, 16, 6*time.Second, 0) }()
		time.Sleep(2 * time.Second)
		w1.Kill()
		(<-done).requireClean(t, "singles load through a worker kill")
		drain(t, w2, gw)
	})
}

// TestIndex (index_smoke.sh): idnindex build, verify (deterministic
// rebuild + sampled sweep equivalence) and inspect; idnserve -index
// answers the request set and /metrics shows the index was consulted.
func TestIndex(t *testing.T) {
	cidx := filepath.Join(t.TempDir(), "brands.cidx")
	run(t, "idnindex", "build", "-top", "500", "-out", cidx)
	run(t, "idnindex", "verify", "-sample", "100", cidx)
	run(t, "idnindex", "inspect", cidx)

	srv, addr := start(t, "idnserve", "idnserve", "-listen", "127.0.0.1:0", "-index", cidx)
	requestSet(t, addr)
	var m struct {
		Index struct {
			Loaded  bool   `json:"loaded"`
			Lookups uint64 `json:"lookups"`
		} `json:"index"`
	}
	metrics(t, addr, &m)
	// The request set has non-ASCII homographs: `"loaded":true`, and not
	// `"lookups":0`.
	if !m.Index.Loaded || m.Index.Lookups == 0 {
		t.Fatalf("/metrics index block %+v: want a loaded index that was consulted", m.Index)
	}
	drain(t, srv)
}

// TestWatch (watch_smoke.sh): idnzonegen emits a delta stream; idnwatch
// -once produces alerts, is idempotent over its cursor and
// deterministic across fresh logs; the daemon serves /metrics, picks up
// a new delta day and drains.
func TestWatch(t *testing.T) {
	dir := t.TempDir()
	deltas := filepath.Join(dir, "deltas")
	aLog, bLog := filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log")
	gen := func(days string) {
		run(t, "idnzonegen", "-out", deltas, "-deltas", days, "-deltas-only", "-seed", "7", "-scale", "400", "-delta-attack-share", "0.3")
	}
	once := func(log string) string {
		return run(t, "idnwatch", "-deltas", deltas, "-alerts", log, "-brands", "200", "-once")
	}
	gen("3")

	// One shot: "processed 3 deltas", "drained cleanly", alerts in the log.
	out := once(aLog)
	if !strings.Contains(out, "processed 3 deltas") || !strings.Contains(out, proctest.DrainedLine) {
		t.Fatalf("first -once run did not process 3 deltas and drain:\n%s", out)
	}
	replayA := run(t, "idnwatch", "-alerts", aLog, "-replay")
	if !strings.HasPrefix(replayA, "{") { // one JSON line per alert, before the summary
		t.Fatalf("no alerts in the log after 3 delta days:\n%s", replayA)
	}
	// Idempotency: "processed 0 deltas" over the same cursor.
	if out := once(aLog); !strings.Contains(out, "processed 0 deltas") {
		t.Fatalf("cursor not idempotent:\n%s", out)
	}
	// Determinism: a fresh log over the same deltas replays byte-equal
	// (the script's `cmp a.json b.json`).
	once(bLog)
	if replayB := run(t, "idnwatch", "-alerts", bLog, "-replay"); replayA != replayB {
		t.Fatalf("alert streams differ between two fresh runs:\n--- a\n%s\n--- b\n%s", replayA, replayB)
	}

	// Daemon: readiness line, /healthz, /metrics with a cursor.
	srv, addr := start(t, "idnwatch", "idnwatch", "-deltas", deltas, "-alerts", aLog, "-brands", "200",
		"-interval", "200ms", "-listen", "127.0.0.1:0")
	if code, _ := get(t, addr, "/healthz"); code != 200 {
		t.Fatalf("/healthz: %d", code)
	}
	if _, body := get(t, addr, "/metrics"); !strings.Contains(body, `"cursor"`) {
		t.Fatalf("/metrics has no cursor: %s", body)
	}
	// Day 4 appears (the same seed regenerates days 1-3 byte-identically);
	// the daemon must advance to its serial within 10 s.
	gen("4")
	const day4 = `"serial":2017080104`
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Millisecond) {
		_, body := get(t, addr, "/metrics")
		if strings.Contains(body, day4) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never advanced to day 4 (%s): %s\nlog:\n%s", day4, body, srv.Log())
		}
	}
	drain(t, srv)
}

// TestStat (stat_smoke.sh): idnzonegen emits the labeled CSV, idnstat
// trains and its held-out eval clears the gates, idnserve -stat returns
// ensemble verdicts, and after a mixed-population load /metrics shows
// the prefilter split.
func TestStat(t *testing.T) {
	dir := t.TempDir()
	labels, model := filepath.Join(dir, "labels.csv"), filepath.Join(dir, "model.idnstat")
	run(t, "idnzonegen", "-labels-only", "-labels", labels, "-seed", "2018", "-scale", "100")
	run(t, "idnstat", "train", "-labels", labels, "-seed", "2018", "-out", model)
	// The eval gates: recall >= 0.95, pass rate <= 0.25 (exit 1 otherwise).
	run(t, "idnstat", "eval", "-model", model, "-labels", labels, "-min-recall", "0.95", "-max-pass", "0.25")
	run(t, "idnstat", "inspect", "-model", model)

	srv, addr := start(t, "idnserve", "idnserve", "-listen", "127.0.0.1:0", "-brands", "1000", "-stat", model)
	if !strings.Contains(srv.Log(), "stat model") {
		t.Fatalf("no stat-model boot line:\n%s", srv.Log())
	}
	// An attack label comes back as a full ensemble verdict: flagged,
	// `"suspicion":"high"`, a confidence block.
	code, body := post(t, addr, "/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	for _, want := range []string{`"flagged":true`, `"suspicion":"high"`, `"confidence"`} {
		if code != 200 || !strings.Contains(body, want) {
			t.Fatalf("attack domain: got %d %s, want %s", code, body, want)
		}
	}
	// A benign ASCII name still answers, unflagged, with a suspicion level.
	code, body = post(t, addr, "/v1/detect", `{"domain":"example.com"}`)
	for _, want := range []string{`"flagged":false`, `"suspicion"`} {
		if code != 200 || !strings.Contains(body, want) {
			t.Fatalf("benign domain: got %d %s, want %s", code, body, want)
		}
	}

	// Mixed-population load (the former load tool's `-mix 0.3`): 30 % of the
	// requests are labelled attacks. It must run clean, and the detector
	// split must show: `"stat_loaded":true`, a rescore_early_exit counter,
	// and a prefilter that shed (not `"prefilter_shed":0`); the cache
	// counts apart from it.
	c := newCorpus(t, 2018, 100)
	c.load(addr, 8, 2*time.Second, 0.3).requireClean(t, "mixed-population load")
	var m struct {
		Cache struct {
			Hits, Misses uint64
		} `json:"cache"`
		Detector struct {
			StatLoaded    bool    `json:"stat_loaded"`
			EarlyExit     *uint64 `json:"rescore_early_exit"`
			PrefilterPass uint64  `json:"prefilter_pass"`
			PrefilterShed uint64  `json:"prefilter_shed"`
		} `json:"detector"`
	}
	metrics(t, addr, &m)
	d := m.Detector
	if !d.StatLoaded || d.EarlyExit == nil || d.PrefilterShed == 0 || m.Cache.Hits+m.Cache.Misses == 0 {
		t.Fatalf("/metrics after the load: detector %+v, cache %+v; want a loaded model that shed", d, m.Cache)
	}
	t.Logf("prefilter shed %d, rescored %d; cache %d hits, %d misses", d.PrefilterShed, d.PrefilterPass, m.Cache.Hits, m.Cache.Misses)
	drain(t, srv)
}

// TestStore (store_smoke.sh): a gateway and three durable workers; warm
// the fleet, SIGKILL one worker under live load, restart it on the same
// store directory while the load still runs, and hold the restart
// story: no client-visible error, a warm boot, an anti-entropy round on
// the restarted worker, three durable nodes, clean drains.
func TestStore(t *testing.T) {
	dir := t.TempDir()
	gw, gwAddr := start(t, "idngateway", "idngateway", "-listen", "127.0.0.1:0", "-heartbeat", "200ms", "-min-ready", "3")
	var w1Addr string
	worker := func(id string) *proctest.Proc {
		w, addr := start(t, id, "idnserve", "-listen", "127.0.0.1:0", "-brands", "1000", "-node", id, "-join", gwAddr,
			"-store", filepath.Join(dir, "store-"+id), "-sync-interval", "500ms")
		if id == "w1" {
			w1Addr = addr
		}
		return w
	}
	w1, w2, w3 := worker("w1"), worker("w2"), worker("w3")
	waitServing(t, gw, 3)
	if n := recovered(t, w1); n != 0 {
		t.Fatalf("cold boot of w1 recovered %d verdicts, want 0", n)
	}

	// Warm phase: zipfian load through the gateway fills every worker's
	// cache partition and, by write-through, its warm log.
	c := newCorpus(t, 1, 2000)
	c.load(gwAddr, 8, 3*time.Second, 0).requireClean(t, "warm phase")

	// Kill phase: SIGKILL w1 at 2 s, restart it at 3 s on its old
	// directory, load running throughout.
	done := make(chan loadResult, 1)
	go func() { done <- c.load(gwAddr, 8, 8*time.Second, 0) }()
	time.Sleep(2 * time.Second)
	w1.Kill()
	time.Sleep(time.Second)
	w1 = worker("w1")
	// `recovered [1-9]`: the warm log survived the SIGKILL.
	if n := recovered(t, w1); n == 0 {
		t.Fatalf("w1 rebooted cold, its warm log did not survive the SIGKILL:\n%s", w1.Log())
	}
	res := <-done
	res.requireClean(t, "load through SIGKILL and warm restart") // "error-rate: 0.00%"

	// The restarted w1 caught up on its downtime through anti-entropy:
	// its own store block counts at least one completed sync round.
	var wm struct {
		Store struct {
			SyncRounds uint64 `json:"syncRounds"`
		} `json:"store"`
	}
	metrics(t, w1Addr, &wm)
	if wm.Store.SyncRounds == 0 {
		t.Fatalf("restarted w1 completed no anti-entropy round:\n%s", w1.Log())
	}

	// The gateway's aggregate of every worker's store block:
	// durable-nodes=3, warm-boot > 0.
	var m struct {
		Cluster struct {
			Store struct {
				DurableNodes    int `json:"durableNodes"`
				WarmBootEntries int `json:"warmBootEntries"`
			} `json:"store"`
		} `json:"cluster"`
	}
	metrics(t, gwAddr, &m)
	s := m.Cluster.Store
	t.Logf("store: %+v", s)
	if s.DurableNodes != 3 {
		t.Fatalf("gateway sees %d durable nodes after the roll, want 3", s.DurableNodes)
	}
	if s.WarmBootEntries == 0 {
		t.Fatal("no warm-boot entries registered cluster-wide")
	}
	drain(t, w1, w2, w3, gw)
}
