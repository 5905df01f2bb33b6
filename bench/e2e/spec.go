package main

import (
	"fmt"
	"math"
)

// Workload names, sizes and the metric lists of the contract. The sizes
// are fixed here, not tuned at run time: a run does the same work on every
// box and only its duration differs.

const (
	wlHot     = "serve_hot_singles"
	wlCold    = "serve_cold_batch"
	wlCluster = "cluster_durable_mixed"
	wlWatch   = "watch_ingest"
	wlStudy   = "study_report"
)

var workloadNames = []string{wlHot, wlCold, wlCluster, wlWatch, wlStudy}

// sizes is the amount of work of every workload. The per-second figures
// are what the reference box (2 cores) completes per second of measured
// phase, rounded down, so that -seconds 10 measures for 10 to 13 s.
type sizes struct {
	// The corpus every request workload draws from, and its attack pool.
	CorpusScale, PoolSize int
	// serve_hot_singles: requests.
	HotSlice, HotWarm, HotMeasured int
	// serve_cold_batch: batches of 256.
	ColdWarm, ColdMeasured int
	// cluster_durable_mixed: domains, and verdicts per pre-populated store.
	ClusterSlice, ClusterUniverse, ClusterStore      int
	ClusterWarm, ClusterMeasured, ClusterAttackShare int // share in percent
	// watch_ingest: generated days, adds per day, files per pass, passes.
	WatchDays, WatchAdds, WatchFiles, WatchPasses, WatchSubs int
	// study_report: universe scale and passes.
	StudyScale, StudyPasses int
}

func sizesFor(seconds int, smoke bool) sizes {
	s := sizes{
		CorpusScale: corpusScale,
		PoolSize:    poolSize,

		HotSlice:    16384,
		HotWarm:     2000 * seconds,
		HotMeasured: 14000 * seconds,

		ColdWarm:     256, // 65,536 domains: exactly one cache capacity
		ColdMeasured: 600 * seconds,

		ClusterSlice:       8192,
		ClusterUniverse:    32768,
		ClusterStore:       32768,
		ClusterWarm:        800 * seconds,
		ClusterMeasured:    5600 * seconds,
		ClusterAttackShare: 20,

		WatchDays:   6,
		WatchAdds:   10000,
		WatchFiles:  3 * seconds,
		WatchPasses: 8,
		WatchSubs:   1000000,

		StudyScale:  20,
		StudyPasses: (3*seconds + 5) / 10,
	}
	if s.StudyPasses < 1 {
		s.StudyPasses = 1
	}
	if smoke {
		// Every workload at 1/50 size: enough to drive each code path of
		// the harness once, too little to measure anything.
		s.CorpusScale, s.PoolSize = 200, 2048
		s.HotSlice /= 50
		s.HotWarm = s.HotSlice / 4
		s.HotMeasured = s.HotSlice * 3
		s.ColdWarm, s.ColdMeasured = 5, 100
		s.ClusterSlice /= 50
		s.ClusterUniverse /= 50
		s.ClusterStore /= 50
		s.ClusterWarm, s.ClusterMeasured = 300, 3000
		s.WatchDays, s.WatchAdds, s.WatchFiles, s.WatchPasses, s.WatchSubs = 2, 1000, 2, 2, 20000
		s.StudyScale, s.StudyPasses = 1000, 1
	}
	return s
}

// metricSpec names one metric of the contract.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; BENCHMARK.json
// holds their direction and bound.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"domains_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_us_per_domain", "us"},
	{"peak_rss_mb", "MB"},
	{"attack_recall", "share"},
	{"benign_pass_share", "share"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// Every one is measured on every workload whose path crosses the layer;
// the probes (see layers.go) measure the function-level ones on every
// workload. A count, share or rate of a layer that a workload never
// touches is a true 0 there.
var perLayer = []metricSpec{
	{"api.decode_request_ns", "ns"},
	{"api.encode_response_ns", "ns"},
	{"api.allocs_per_request", "count"},
	{"api.decode_batch_ns_per_domain", "ns"},
	{"api.encode_batch_ns_per_domain", "ns"},
	{"api.decode_batch_response_allocs", "count"},
	{"core.normalize_ns", "ns"},
	{"core.verdict_ns", "ns"},
	{"core.verdict_self_ns", "ns"},
	{"feat.score_ns", "ns"},
	{"feat.shed_share", "share"},
	{"candidx.probe_ns", "ns"},
	{"candidx.hit_share", "share"},
	{"candidx.candidates_per_probe", "count"},
	{"ssim.rescore_ns", "ns"},
	{"ssim.rescores_per_domain", "count"},
	{"ssim.early_exit_share", "share"},
	{"serve.cache_hit_share", "share"},
	{"serve.cache_hit_ns", "ns"},
	{"serve.cache_miss_insert_ns", "ns"},
	{"serve.cache_evictions", "count"},
	{"serve.handler_share", "share"},
	{"serve.admission_queued", "count"},
	{"serve.admission_shed", "count"},
	{"http.hop_share", "share"},
	{"pipeline.batch_utilization", "share"},
	{"pipeline.batch_throughput", "1/s"},
	{"pipeline.scan_homograph_dps", "1/s"},
	{"pipeline.scan_semantic_dps", "1/s"},
	{"cluster.gateway_added_share", "share"},
	{"cluster.router_retries", "count"},
	{"cluster.subbatches_per_batch", "count"},
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.sync_rounds_in_phase", "count"},
	{"vstore.append_ns", "ns"},
	{"vstore.bytes_per_record", "B"},
	{"vstore.frames_per_commit", "count"},
	{"vstore.replication_out", "count"},
	{"vstore.replication_dropped", "count"},
	{"vstore.recovery_entries_per_s", "1/s"},
	{"vstore.warm_boot_entries", "count"},
	{"watch.parse_mb_per_s", "MB/s"},
	{"watch.match_ns", "ns"},
	{"watch.alertlog_append_ns", "ns"},
	{"watch.alertlog_frames_per_commit", "count"},
	{"watch.alerts", "count"},
	{"watch.startup_share", "share"},
	{"zonegen.generate_share", "share"},
	{"core.assemble_share", "share"},
	{"core.study_run_share", "share"},
	{"client.latency_p99_ms", "ms"},
	{"client.latency_p999_ms", "ms"},
	{"client.cpu_us_per_request", "us"},
	{"client.phase_s", "s"},
	{"client.segment_spread", "share"},
	{"budget.unattributed_share", "share"},
	{"trace.overhead_share", "share"},
}

// contractMetrics lays out what a run measured under the names of specs,
// in the specs' units. A layer the workload never touches reads 0; a name
// the run measured but no spec lists is an error (a typo would otherwise
// drop a metric silently).
func contractMetrics(specs []metricSpec, measured map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, sp := range specs {
		out[sp.Name] = metric{measured[sp.Name].Value, sp.Unit}
	}
	for name, m := range measured {
		sp, ok := out[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not in the contract's list", name)
		}
		if sp.Unit != m.Unit {
			return nil, fmt.Errorf("metric %q measured in %q, listed in %q", name, m.Unit, sp.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, m.Value)
		}
	}
	return out, nil
}
