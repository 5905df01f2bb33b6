package serve

import (
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
}
