package serve

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/metricsutil"
	"idnlab/internal/pipeline"
)

// Live serving metrics, extending the batch engine's pipeline.Metrics
// with what an online service additionally needs: request counters per
// route and status class, an end-to-end latency histogram (the shared
// metricsutil.Histogram — the cluster gateway keeps an identical one, so
// cluster-wide latency views compose), cache hit rate and admission
// pressure. Everything is atomics — /metrics is safe (and cheap) to
// scrape during full load.

// serverMetrics aggregates the server's live counters.
type serverMetrics struct {
	start time.Time

	single  atomic.Uint64 // /v1/detect requests
	batch   atomic.Uint64 // /v1/detect/batch requests
	labels  atomic.Uint64 // labels classified (batch items + singles)
	flagged atomic.Uint64 // verdicts with at least one detector match

	status cluster.StatusCounts

	latency metricsutil.Histogram
}

// RequestStats is the request-counter wire form.
type RequestStats struct {
	Single    uint64 `json:"single"`
	Batch     uint64 `json:"batch"`
	Labels    uint64 `json:"labels"`
	Flagged   uint64 `json:"flagged"`
	Status2xx uint64 `json:"status2xx"`
	Status4xx uint64 `json:"status4xx"`
	Status429 uint64 `json:"status429"`
	Status5xx uint64 `json:"status5xx"`
}

// IndexStats is the candidate-index wire form: which index the node
// serves with, and how often lookups produce candidates. A low hit
// rate is healthy — most traffic is not a near-homograph of any brand,
// and a miss is the cheapest possible verdict.
type IndexStats struct {
	Loaded      bool    `json:"loaded"`
	Format      string  `json:"format,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Brands      int     `json:"brands,omitempty"`
	Keys        int     `json:"keys,omitempty"`
	Lookups     uint64  `json:"lookups"`
	Hits        uint64  `json:"hits"`
	HitRate     float64 `json:"hitRate"`
}

// MetricsSnapshot is the full /metrics payload.
type MetricsSnapshot struct {
	Node          string                   `json:"node"`
	Version       string                   `json:"version"`
	UptimeSeconds float64                  `json:"uptimeSeconds"`
	Requests      RequestStats             `json:"requests"`
	Latency       metricsutil.LatencyStats `json:"latency"`
	Cache         CacheStats               `json:"cache"`
	Admission     AdmissionStats           `json:"admission"`
	BatchEngine   pipeline.MetricsJSON     `json:"batchEngine"`
	Index         IndexStats               `json:"index"`
	// Detector aggregates the detector family's shared counters across
	// every clone: bounded-rescore early exits and — with a statistical
	// model loaded — the learned prefilter's pass/shed split.
	Detector core.DetectorStats `json:"detector"`
	// Store is the durable-store block: warm-log/snapshot counters plus
	// the replication and anti-entropy counters the store drill asserts
	// against. Loaded=false on memory-only nodes.
	Store StoreStats `json:"store"`
	// Runtime is the Go runtime's cumulative cost block.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is what the Go runtime has spent since the process
// started, read from runtime/metrics. Every field is cumulative, so the
// difference of two scrapes prices the traffic between them: Δ
// heapAllocObjects ÷ Δ requests.labels is allocations per classified
// name, Δ gcCpuSeconds ÷ Δ cpuSeconds the share of busy CPU that went
// to the collector. The CPU figures are the runtime's own estimates
// (/cpu/classes) as of the last completed collection, comparable with
// each other but not with the OS's CPU accounting; the allocation
// counts are flushed per span, so a short interval reads coarse.
type RuntimeStats struct {
	// CPUSeconds is the CPU time spent running Go code or the runtime:
	// the /cpu/classes total less its idle class.
	CPUSeconds float64 `json:"cpuSeconds"`
	// GCCPUSeconds is the part of CPUSeconds spent on garbage collection.
	GCCPUSeconds float64 `json:"gcCpuSeconds"`
	// HeapAllocObjects counts every heap allocation, tiny ones included
	// (what runtime.MemStats.Mallocs and testing.AllocsPerRun count).
	HeapAllocObjects uint64 `json:"heapAllocObjects"`
	// HeapAllocBytes is the bytes those allocations asked for.
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	// GCCycles counts completed collections.
	GCCycles uint64 `json:"gcCycles"`
}

// runtimeSampleNames are the runtime/metrics read for RuntimeStats, in
// the order readRuntimeStats consumes them.
var runtimeSampleNames = [...]string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readRuntimeStats samples the runtime's cumulative counters.
func readRuntimeStats() RuntimeStats {
	var s [len(runtimeSampleNames)]metrics.Sample
	for i, name := range runtimeSampleNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return RuntimeStats{
		CPUSeconds:       s[0].Value.Float64() - s[1].Value.Float64(),
		GCCPUSeconds:     s[2].Value.Float64(),
		HeapAllocObjects: s[3].Value.Uint64() + s[4].Value.Uint64(),
		HeapAllocBytes:   s[5].Value.Uint64(),
		GCCycles:         s[6].Value.Uint64(),
	}
}
