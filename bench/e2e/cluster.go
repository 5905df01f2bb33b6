package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"idnlab/internal/cluster"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
)

// cluster_durable_mixed: idngateway in front of two idnserve workers
// with durable stores, every process on one scheduler thread.

const clusterWorkers = 2 // R=2 replication needs two

// oneThread pins a child's Go scheduler to one thread: three servers and
// the generator share two cores here, and a fixed thread count keeps the
// contention the same from run to run.
var oneThread = []string{"GOMAXPROCS=1"}

// gatewayMetrics is the part of idngateway's /metrics the benchmark
// reads.
type gatewayMetrics struct {
	Gateway struct {
		Batch      uint64 `json:"batch"`
		SubBatches uint64 `json:"subBatches"`
	} `json:"gateway"`
	Router struct {
		Retries uint64 `json:"retries"`
	} `json:"router"`
}

func scrapeGateway(addr string) (gatewayMetrics, error) {
	var m gatewayMetrics
	b, err := httpGet(addr, "/metrics")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("decode gateway /metrics: %w", err)
	}
	return m, nil
}

// populateStore writes one verdict per domain into a fresh store at dir,
// through the store's own Open/Append/Sync/Close, and returns the time
// the appends and the final sync took.
func populateStore(dir string, orc *oracle, domains []labelled) (time.Duration, vstore.Stats, error) {
	st, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		return 0, vstore.Stats{}, err
	}
	begin := time.Now()
	for _, d := range domains {
		if st.Append(orc.response(d.Domain).Verdict) == 0 {
			st.Close()
			return 0, vstore.Stats{}, fmt.Errorf("store %s refused an append", dir)
		}
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return 0, vstore.Stats{}, err
	}
	took := time.Since(begin)
	stats := st.Stats()
	return took, stats, st.Close()
}

func runCluster(e *env) (*runResult, error) {
	res := newResult(wlCluster, e.seed)
	begin := time.Now()
	sup, err := newSupervisor(e.ctx, e.tmp)
	if err != nil {
		return nil, err
	}
	defer sup.close()

	c := buildCorpus(e.size, true)
	sz := e.size
	slice := c.hotSlice(sz.ClusterSlice)
	universe := c.Domains[:sz.ClusterUniverse]
	total := sz.ClusterWarm + sz.ClusterMeasured
	attacks := total * sz.ClusterAttackShare / 100
	if attacks > len(c.Pool) {
		attacks = len(c.Pool)
	}
	seq := clusterMixed(slice, universe, c.Pool, e.seed, sz.ClusterWarm, total, attacks)
	inputs := time.Since(begin)

	art, err := buildArtifacts(e, sup, c)
	if err != nil {
		return nil, err
	}
	orc, err := loadOracle(art.Index, art.Stat)
	if err != nil {
		return nil, err
	}
	// Both workers hold every stored verdict: with two nodes and R=2 each
	// key's owner and replica are the whole cluster.
	stored := c.Domains[:sz.ClusterStore]
	orc.learn([]op{{Domains: domainsOf(stored)}})
	var appendTook time.Duration
	var storeStats vstore.Stats
	for w := 1; w <= clusterWorkers; w++ {
		appendTook, storeStats, err = populateStore(sup.path("store-w"+strconv.Itoa(w)), orc, stored)
		if err != nil {
			return nil, err
		}
	}
	artifactsDone := time.Since(begin)

	gw, err := sup.start("idngateway", oneThread, nil, e.tool("idngateway"),
		"-listen", "127.0.0.1:0", "-min-ready", strconv.Itoa(clusterWorkers))
	if err != nil {
		return nil, err
	}
	m, err := gw.waitLine(reListening, bootTimeout)
	if err != nil {
		return nil, err
	}
	gwAddr := m[1]
	var workers []server
	var recovered int
	bootBegin := time.Now()
	for w := 1; w <= clusterWorkers; w++ {
		id := "w" + strconv.Itoa(w)
		p, err := sup.start(id, oneThread, nil, e.tool("idnserve"), "-listen", "127.0.0.1:0",
			"-index", art.Index, "-stat", art.Stat, "-store", sup.path("store-"+id), "-node", id, "-join", gwAddr)
		if err != nil {
			return nil, err
		}
		workers = append(workers, server{proc: p})
	}
	for i := range workers {
		rec, err := workers[i].proc.waitLine(reRecovered, bootTimeout)
		if err != nil {
			return nil, err
		}
		n, _ := strconv.Atoi(rec[1]) // the pattern admits digits only
		recovered += n
		m, err := workers[i].proc.waitLine(reListening, bootTimeout)
		if err != nil {
			return nil, err
		}
		workers[i].addr = m[1]
	}
	warmBoot := time.Since(bootBegin)
	if _, err := gw.waitLine(reServing, bootTimeout); err != nil {
		return nil, err
	}
	// The first anti-entropy round streams the peer's whole log; it has
	// to be over before traffic starts or it would run inside the phase.
	for _, w := range workers {
		if err := waitSynced(w.addr); err != nil {
			return nil, err
		}
	}
	booted := time.Since(begin)

	cl := newClient(gwAddr)
	defer cl.close()
	procs := []*proc{gw}
	for _, w := range workers {
		procs = append(procs, w.proc)
	}
	var scrapes [][]serve.MetricsSnapshot // per boundary, per worker
	var gwScrapes []gatewayMetrics
	var setup time.Duration
	ph, err := drive(cl, seq, procs, func() error {
		if setup == 0 {
			setup = time.Since(begin)
		}
		var at []serve.MetricsSnapshot
		for _, w := range workers {
			s, err := scrape(w.addr)
			if err != nil {
				return err
			}
			at = append(at, s)
		}
		scrapes = append(scrapes, at)
		g, err := scrapeGateway(gwAddr)
		gwScrapes = append(gwScrapes, g)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := sup.stop(); err != nil {
		return nil, err
	}

	res.Attempted = len(seq.Ops)
	res.Failed, res.Failures = orc.check(seq.Ops, ph.results)
	q := orc.qualityOf(slice, c.Pool[:attacks])

	requestMetrics(res, ph)
	var rss int64
	for _, p := range procs {
		r, _ := p.usage()
		rss += r
	}
	res.E2E["setup_s"] = metric{setup.Seconds(), "s"}
	res.E2E["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
	res.E2E["attack_recall"] = metric{q.recall(), "share"}
	res.E2E["benign_pass_share"] = metric{1 - q.benignShare(), "share"}

	var deltas []serveDelta
	var replOut, replDropped, syncRounds, workerHandlerUs float64
	for i := range workers {
		d := serveDelta{scrapes[0][i], scrapes[1][i]}
		deltas = append(deltas, d)
		syncRounds += float64(d.b.Store.SyncRounds - d.a.Store.SyncRounds)
		replOut += float64(d.b.Store.ReplicationOut - d.a.Store.ReplicationOut)
		replDropped += float64(d.b.Store.ReplicationDropped - d.a.Store.ReplicationDropped)
		workerHandlerUs += d.handlerMicros()
	}
	clientMeanUs := res.Extra["client.latency_mean_ms"].Value * 1000
	serveLayerMetrics(res, deltas, clientMeanUs)
	ops, _ := ph.measured()
	// What the gateway tier adds to a request: the client's mean latency
	// minus the workers' handler time per client request.
	addedUs := clientMeanUs - workerHandlerUs/float64(len(ops))
	g0, g1 := gwScrapes[0].Gateway, gwScrapes[1].Gateway
	res.Layer["cluster.gateway_added_share"] = metric{safeDiv(addedUs, clientMeanUs), "share"}
	res.Layer["cluster.router_retries"] = metric{float64(gwScrapes[1].Router.Retries - gwScrapes[0].Router.Retries), "count"}
	res.Layer["cluster.subbatches_per_batch"] = metric{safeDiv(float64(g1.SubBatches-g0.SubBatches), float64(g1.Batch-g0.Batch)), "count"}
	res.Layer["http.hop_share"] = res.Layer["cluster.gateway_added_share"]
	// Anti-entropy rounds that fell inside the phase. The phase is sized to
	// end before the second round (15 s after the first); a run that
	// reports one here measured the round's cost on top of the traffic's.
	res.Layer["cluster.sync_rounds_in_phase"] = metric{syncRounds, "count"}
	res.Layer["vstore.replication_out"] = metric{replOut, "count"}
	res.Layer["vstore.replication_dropped"] = metric{replDropped, "count"}
	res.Layer["vstore.warm_boot_entries"] = metric{float64(recovered), "count"}
	res.Layer["vstore.recovery_entries_per_s"] = metric{float64(recovered) / warmBoot.Seconds(), "1/s"}
	res.Extra["cluster.gateway_added_mean_us"] = metric{addedUs, "us"}
	res.Extra["vstore.populate_append_ns"] = metric{float64(appendTook.Nanoseconds()) / float64(len(stored)), "ns"}
	res.Extra["vstore.populate_frames_per_commit"] = metric{safeDiv(float64(storeStats.Appends), float64(storeStats.Commits)), "count"}
	res.Extra["vstore.populate_bytes_per_record"] = metric{safeDiv(float64(storeStats.LogBytes), float64(storeStats.Appends)), "B"}
	res.Extra["vstore.warm_boot_s"] = metric{warmBoot.Seconds(), "s"}
	setupParts(res, inputs, artifactsDone-inputs, booted-artifactsDone, setup-booted)
	qualityExtras(res, q)
	if e.trace {
		kit, err := newLayerKit(orc)
		if err != nil {
			return nil, err
		}
		if err := probeLayers(res, kit, sampleDomains(seq), sup.dir); err != nil {
			return nil, err
		}
		ring := cluster.NewRing([]cluster.NodeInfo{{ID: "w1"}, {ID: "w2"}})
		passes := 0
		newReplayer := func() (*replayer, error) {
			passes++
			st, err := vstore.Open(vstore.Config{Dir: sup.path("replay-store-" + strconv.Itoa(passes))})
			if err != nil {
				return nil, err
			}
			return &replayer{kit: kit, cls: orc.cls.Clone(), cache: serve.NewVerdictCache(65536, 16), ring: ring, store: st}, nil
		}
		handlerUs := workerHandlerUs / float64(len(ops))
		if err := requestBudget(e, res, seq, newReplayer, handlerUs, clientMeanUs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func domainsOf(set []labelled) []string {
	out := make([]string, len(set))
	for i, l := range set {
		out[i] = l.Domain
	}
	return out
}

// waitSynced polls a worker's /metrics until its first anti-entropy
// round has completed.
func waitSynced(addr string) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		s, err := scrape(addr)
		if err != nil {
			return err
		}
		if s.Store.SyncRounds > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s finished no anti-entropy round within %s", addr, bootTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
