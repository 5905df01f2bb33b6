package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"idnlab/internal/serve"
	"idnlab/internal/zonegen"
)

// The two single-server workloads, and the pieces every request workload
// shares: artifacts built with the repo's own tools, the warm-up and
// measured phases, and the metrics read off the generator's records.

// artifacts are the files the servers load.
type artifacts struct{ Index, Stat string }

// buildArtifacts runs `idnindex build` and `idnstat train` on the
// corpus's labels, as a deployment would.
func buildArtifacts(e *env, sup *supervisor, c *corpus) (artifacts, error) {
	a := artifacts{Index: sup.path("brands.cidx"), Stat: sup.path("model.idnstat")}
	if _, err := sup.run("idnindex", nil, nil, e.tool("idnindex"), "build", "-out", a.Index); err != nil {
		return a, err
	}
	labels := sup.path("labels.csv")
	f, err := os.Create(labels)
	if err != nil {
		return a, err
	}
	if err := zonegen.WriteLabels(f, c.reg.Labels()); err != nil {
		f.Close()
		return a, err
	}
	if err := f.Close(); err != nil {
		return a, err
	}
	if _, err := sup.run("idnstat", nil, nil, e.tool("idnstat"), "train", "-labels", labels, "-out", a.Stat); err != nil {
		return a, err
	}
	return a, nil
}

// scrape reads an idnserve's /metrics.
func scrape(addr string) (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	b, err := httpGet(addr, "/metrics")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("decode /metrics of %s: %w", addr, err)
	}
	return m, nil
}

// server is one booted idnserve.
type server struct {
	proc *proc
	addr string
}

// phase is the account of one measured phase: the generator's records
// and, for each server-side process, its CPU over the phase.
type phase struct {
	seq     *sequence
	results []result
	client  phaseStats
	cpu     time.Duration // all server-side processes
}

// measured returns the operations and records of the measured part.
func (p *phase) measured() ([]op, []result) {
	return p.seq.Ops[p.seq.Warm:], p.results[p.seq.Warm:]
}

// drive sends the warm-up operations, calls boundary, sends the measured
// operations and calls boundary again. procs are the server-side
// processes whose CPU is read at the two boundaries.
func drive(cl *client, seq *sequence, procs []*proc, boundary func() error) (*phase, error) {
	bodies := requestBodies(seq.Ops)
	p := &phase{seq: seq, results: make([]result, len(seq.Ops))}
	cl.run(seq.Ops[:seq.Warm], bodies[:seq.Warm], p.results[:seq.Warm])
	cpu0, err := sumCPU(procs)
	if err != nil {
		return nil, err
	}
	if err := boundary(); err != nil {
		return nil, err
	}
	p.client = cl.run(seq.Ops[seq.Warm:], bodies[seq.Warm:], p.results[seq.Warm:])
	cpu1, err := sumCPU(procs)
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, boundary()
}

func sumCPU(procs []*proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range procs {
		c, err := p.cpu()
		if err != nil {
			return 0, fmt.Errorf("read CPU of %s: %w", p.name, err)
		}
		sum += c
	}
	return sum, nil
}

// failedLatency stands in for the latency of an operation that failed: a
// failure misses every latency limit.
const failedLatency = 10 * time.Second

// latencies returns the measured requests' client latencies, sorted, in
// milliseconds.
func latenciesMs(results []result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		d := time.Duration(r.End - r.Start)
		if !r.OK {
			d = failedLatency
		}
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// requestMetrics fills in what every request workload reads off the
// generator: throughput, latency percentiles and the generator's own
// account of itself.
func requestMetrics(res *runResult, p *phase) {
	ops, results := p.measured()
	rates := segmentRates(ops, results)
	lat := latenciesMs(results)
	domains := p.seq.domainCount(p.seq.Warm, len(p.seq.Ops))

	res.E2E["domains_per_s"] = metric{median(rates), "1/s"}
	res.E2E["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	res.E2E["latency_p90_ms"] = metric{quantile(lat, 0.90), "ms"}
	res.E2E["cpu_us_per_domain"] = metric{float64(p.cpu.Microseconds()) / float64(domains), "us"}

	res.Layer["client.latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Layer["client.latency_p999_ms"] = metric{quantile(lat, 0.999), "ms"}
	res.Layer["client.cpu_us_per_request"] = metric{float64(p.client.CPU.Microseconds()) / float64(len(ops)), "us"}
	res.Layer["client.phase_s"] = metric{p.client.Wall.Seconds(), "s"}
	res.Layer["client.segment_spread"] = metric{relSpread(rates), "share"}

	res.Extra["client.latency_samples"] = metric{float64(len(lat)), "count"}
	res.Extra["client.latency_mean_ms"] = metric{mean(lat), "ms"}
	res.Extra["client.measured_domains"] = metric{float64(domains), "count"}
	res.Extra["client.domains_per_s_whole_phase"] = metric{float64(domains) / p.client.Wall.Seconds(), "1/s"}
}

// serveDelta holds what two /metrics scrapes of one idnserve say about
// the phase between them.
type serveDelta struct{ a, b serve.MetricsSnapshot }

func (d serveDelta) labels() float64 { return float64(d.b.Requests.Labels - d.a.Requests.Labels) }
func (d serveDelta) cacheServed() float64 {
	return float64(d.b.Cache.Hits + d.b.Cache.Coalesced - d.a.Cache.Hits - d.a.Cache.Coalesced)
}
func (d serveDelta) evictions() float64 { return float64(d.b.Cache.Evictions - d.a.Cache.Evictions) }
func (d serveDelta) requests() float64  { return float64(d.b.Latency.Count - d.a.Latency.Count) }

// handlerMicros is the total time the handlers spent on the phase's
// requests: mean × count, differenced (the histogram's percentiles are
// powers of two and too coarse).
func (d serveDelta) handlerMicros() float64 {
	return d.b.Latency.MeanMicros*float64(d.b.Latency.Count) - d.a.Latency.MeanMicros*float64(d.a.Latency.Count)
}

// serveLayerMetrics fills in the per-layer numbers scraped from the
// workers' counters. clientMeanUs is the generator's mean latency.
func serveLayerMetrics(res *runResult, deltas []serveDelta, clientMeanUs float64) {
	var labels, served, evictions, requests, handlerUs, queued, shed float64
	var util, thr []float64
	for _, d := range deltas {
		labels += d.labels()
		served += d.cacheServed()
		evictions += d.evictions()
		requests += d.requests()
		handlerUs += d.handlerMicros()
		queued += float64(d.b.Admission.Queued)
		shed += float64(d.b.Admission.Shed - d.a.Admission.Shed)
		util = append(util, d.b.BatchEngine.Utilization)
		thr = append(thr, d.b.BatchEngine.ThroughputPerSec)
	}
	handlerMean := safeDiv(handlerUs, requests)
	res.Layer["serve.cache_hit_share"] = metric{safeDiv(served, labels), "share"}
	res.Layer["serve.cache_evictions"] = metric{evictions, "count"}
	res.Layer["serve.admission_queued"] = metric{queued, "count"}
	res.Layer["serve.admission_shed"] = metric{shed, "count"}
	res.Layer["serve.handler_share"] = metric{safeDiv(handlerMean, clientMeanUs), "share"}
	res.Layer["pipeline.batch_utilization"] = metric{mean(util), "share"}
	res.Layer["pipeline.batch_throughput"] = metric{mean(thr), "1/s"}
	res.Extra["serve.handler_mean_us"] = metric{handlerMean, "us"}
	res.Extra["serve.labels"] = metric{labels, "count"}
}

// runServe runs serve_hot_singles or serve_cold_batch against one
// idnserve with default flags plus -index and -stat.
func runServe(e *env, name string) (*runResult, error) {
	res := newResult(name, e.seed)
	begin := time.Now()
	sup, err := newSupervisor(e.ctx, e.tmp)
	if err != nil {
		return nil, err
	}
	defer sup.close()

	c := buildCorpus(e.size, name == wlCold)
	var seq *sequence
	var covered [][]labelled // the domains every seed requests: the quality metrics' base
	if name == wlHot {
		slice := c.hotSlice(e.size.HotSlice)
		seq = hotSingles(slice, e.seed, e.size.HotWarm, e.size.HotMeasured)
		covered = [][]labelled{slice}
	} else {
		seq = coldBatch(c, e.seed, e.size.ColdWarm, e.size.ColdMeasured)
		covered = [][]labelled{c.Domains, c.Pool}
	}
	inputs := time.Since(begin)

	art, err := buildArtifacts(e, sup, c)
	if err != nil {
		return nil, err
	}
	artifactsDone := time.Since(begin)
	p, err := sup.start("idnserve", nil, nil, e.tool("idnserve"), "-listen", "127.0.0.1:0", "-index", art.Index, "-stat", art.Stat)
	if err != nil {
		return nil, err
	}
	m, err := p.waitLine(reListening, bootTimeout)
	if err != nil {
		return nil, err
	}
	srv := server{proc: p, addr: m[1]}
	booted := time.Since(begin)

	cl := newClient(srv.addr)
	defer cl.close()
	var scrapes []serve.MetricsSnapshot
	var setup time.Duration
	ph, err := drive(cl, seq, []*proc{srv.proc}, func() error {
		if setup == 0 {
			setup = time.Since(begin)
		}
		s, err := scrape(srv.addr)
		scrapes = append(scrapes, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := sup.stop(); err != nil {
		return nil, err
	}

	// Judged after the phase, from the records.
	orc, err := loadOracle(art.Index, art.Stat)
	if err != nil {
		return nil, err
	}
	res.Attempted = len(seq.Ops)
	res.Failed, res.Failures = orc.check(seq.Ops, ph.results)
	q := orc.qualityOf(covered...)

	requestMetrics(res, ph)
	rss, _ := srv.proc.usage()
	res.E2E["setup_s"] = metric{setup.Seconds(), "s"}
	res.E2E["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
	res.E2E["attack_recall"] = metric{q.recall(), "share"}
	res.E2E["benign_pass_share"] = metric{1 - q.benignShare(), "share"}
	clientMeanUs := res.Extra["client.latency_mean_ms"].Value * 1000
	serveLayerMetrics(res, []serveDelta{{scrapes[0], scrapes[1]}}, clientMeanUs)
	res.Layer["http.hop_share"] = metric{1 - res.Layer["serve.handler_share"].Value, "share"}
	res.Extra["http.hop_mean_us"] = metric{clientMeanUs - res.Extra["serve.handler_mean_us"].Value, "us"}
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
		newReplayer := func() (*replayer, error) {
			return &replayer{kit: kit, cls: orc.cls.Clone(), cache: serve.NewVerdictCache(65536, 16)}, nil
		}
		if err := requestBudget(e, res, seq, newReplayer, res.Extra["serve.handler_mean_us"].Value, clientMeanUs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sampleDomains returns the first probeSample distinct domains of the
// measured operations, in order.
func sampleDomains(seq *sequence) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, o := range seq.Ops[seq.Warm:] {
		for _, d := range o.Domains {
			if _, dup := seen[d]; !dup && len(out) < probeSample {
				seen[d] = struct{}{}
				out = append(out, d)
			}
		}
	}
	return out
}

// setupParts records what setup_s is made of.
func setupParts(res *runResult, inputs, artifacts, boot, warmup time.Duration) {
	res.Extra["setup.inputs_s"] = metric{inputs.Seconds(), "s"}
	res.Extra["setup.artifacts_s"] = metric{artifacts.Seconds(), "s"}
	res.Extra["setup.boot_s"] = metric{boot.Seconds(), "s"}
	res.Extra["setup.warmup_s"] = metric{warmup.Seconds(), "s"}
}

func qualityExtras(res *runResult, q quality) {
	res.Extra["quality.attack_domains"] = metric{float64(q.Attacks), "count"}
	res.Extra["quality.attack_flagged"] = metric{float64(q.AttacksFlagged), "count"}
	res.Extra["quality.benign_domains"] = metric{float64(q.Benign), "count"}
	res.Extra["quality.benign_flagged"] = metric{float64(q.BenignFlagged), "count"}
}
