// Package serve is the online detection service: the paper's homograph
// (§VI) and Type-1 semantic (§VII) detectors, batch jobs everywhere else
// in this repository, hosted behind a long-running HTTP JSON API.
//
// Request path, in order:
//
//  1. Decode + normalize ONCE at the boundary (core.Normalize); the
//     normalized ACE form is the cache key and the detectors' input —
//     no per-detector IDNA round-trips.
//  2. Sharded LRU verdict cache with singleflight dedup: warm traffic
//     (zipfian, like real query streams) is served from memory without
//     touching a detector; concurrent identical misses share one
//     computation.
//  3. Admission control in front of detector work only: a fixed slot
//     pool plus a bounded deadline-aware wait queue. Saturation sheds
//     early with 429 + Retry-After; the queue cannot collapse.
//  4. Detection on a per-worker pool of detector clones — cheap because
//     Clone() shares all immutable state; batches fan out through the
//     internal/pipeline engine, and each domain's verdict is written at
//     its request index, so batch responses align with request order.
//
// Shutdown: Run drains on context cancellation — /healthz flips to 503
// (load balancers stop sending), in-flight requests finish within the
// drain budget, then the listener closes.
package serve

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/candidx"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/feat"
	"idnlab/internal/pipeline"
	"idnlab/internal/version"
	"idnlab/internal/vstore"
)

// Config parameterizes a Server. The zero value selects sane defaults
// for every field (see withDefaults).
type Config struct {
	// NodeID names this node in health bodies (default:
	// "<hostname>-<pid>"). Once a Peer is attached, every body names the
	// node by the Peer's ID, the one the cluster routes and syncs under.
	NodeID string
	// TopK is the brand-list depth defended (default 1000).
	TopK int
	// Workers is the batch fan-out width and the size of the
	// single-request clone pool; <= 0 selects GOMAXPROCS, the width the
	// daemon runs at. Tests pin it.
	Workers int
	// CacheSize is the verdict-cache capacity in entries; <= 0 selects
	// 65536, the capacity the daemon runs at. Tests shrink it to reach
	// eviction.
	CacheSize int
	// Index, when set, is a precomputed homograph candidate index (built
	// offline by idnindex, loaded with candidx.LoadFile) that replaces
	// the process-wide default index for brands.TopK(TopK). Both
	// detectors defend its embedded catalog. The stats of whichever
	// index the detectors probe surface at /metrics.
	Index *candidx.Index
	// Stat, when set, is a trained statistical model (loaded with
	// feat.LoadFile): every verdict becomes a three-detector ensemble
	// and the model gates the SSIM path as a learned prefilter.
	// Prefilter pass/shed counters surface at /metrics.
	Stat *feat.Model
	// Store, when set, is the node's durable verdict store
	// (vstore.Open): recovered records warm the cache before the
	// listener opens, every fresh verdict is appended write-through, and
	// the cluster paths (replication, anti-entropy) turn on when a Peer
	// is attached. Store stats surface at /metrics.
	Store *vstore.Store
	// Replica sets the cadences of those cluster paths.
	Replica cluster.ReplicaConfig
}

// Capacity. The verdict cache is striped over cacheShards locks (one
// per entry in a cache smaller than that). Admission runs 4×Workers
// detector calls at once and queues 16× that many waiters for at most
// queueWait; requestTimeout is the per-request deadline at the handler
// boundary.
const (
	cacheShards    = 16
	queueWait      = 50 * time.Millisecond
	requestTimeout = time.Second
)

func (c Config) withDefaults() Config {
	if c.NodeID == "" {
		c.NodeID = defaultNodeID()
	}
	if c.TopK <= 0 {
		c.TopK = 1000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 65536
	}
	return c
}

// defaultNodeID derives a stable-enough identity for a node that was
// not given one: hostname plus pid survives restarts of the same
// deployment slot closely enough for human debugging, while explicit
// -node flags are what production clusters should use (ring placement
// follows the ID).
func defaultNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Server hosts the detectors online. Build with NewServer; it is safe
// for concurrent use by any number of HTTP handler goroutines.
type Server struct {
	cfg      Config
	cache    *VerdictCache
	adm      *Admission
	metrics  *serverMetrics
	proto    *core.Classifier
	pool     chan *core.Classifier
	batchEng *pipeline.Engine[*core.Classifier]
	peer     atomic.Pointer[cluster.Peer]
	warmed   chan struct{} // closed when detector warm-up completes
	draining atomic.Bool

	// Durable-store integration (store.go). store is nil on nodes
	// running memory-only; the replica is then cache-only.
	store   *vstore.Store
	replica *cluster.Replica
}

// NewServer builds the service: one prototype classifier (brand index,
// candidate index, prerendered rasters — built once), a clone pool for
// single requests, and a shared pipeline engine for batch fan-out.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	dcfg := core.DetectorConfig{TopK: cfg.TopK, Index: cfg.Index, Stat: cfg.Stat}
	inflight := 4 * cfg.Workers
	s := &Server{
		cfg:     cfg,
		cache:   NewVerdictCache(cfg.CacheSize, min(cacheShards, cfg.CacheSize)),
		adm:     NewAdmission(inflight, 16*inflight, queueWait),
		metrics: &serverMetrics{start: time.Now()},
		proto:   core.NewClassifier(dcfg),
		pool:    make(chan *core.Classifier, inflight),
		warmed:  make(chan struct{}),
	}
	s.attachStore()
	// Batch fan-out reuses the scan engine: per-worker clones of the
	// shared prototype, each verdict written at its request index,
	// per-stage metrics surfaced at /metrics.
	s.batchEng = pipeline.New(
		pipeline.Config{Stage: "serve.batch", Workers: cfg.Workers, Batch: 8},
		func() *core.Classifier { return s.proto.Clone() })
	go s.warmup()
	return s
}

// warmup primes the process-wide caches the first request would
// otherwise pay for — the prerendered brand rasters behind the homograph
// detector — by classifying one known homograph and one semantic
// canary. /readyz reports unready until it completes, so a load
// balancer never routes to a node whose first verdicts would be
// hundred-of-ms outliers.
func (s *Server) warmup() {
	defer close(s.warmed)
	c := s.proto.Clone()
	for _, canary := range []string{"xn--pple-43d.com", "apple邮箱.com", "example.com"} {
		if n, err := core.Normalize(canary); err == nil {
			_ = c.Verdict(n)
		}
	}
	s.giveBack(c)
}

// Warmed reports whether detector warm-up has completed.
func (s *Server) Warmed() bool {
	select {
	case <-s.warmed:
		return true
	default:
		return false
	}
}

// AttachPeer wires a cluster membership client into the server's
// /readyz and /clusterz views and its replica. Safe to call while
// serving.
func (s *Server) AttachPeer(p *cluster.Peer) {
	s.peer.Store(p)
	s.replica.Attach(p)
}

// Replica exposes the node-to-node side of the store; run it
// (Replica().Run) alongside Peer.Run on a durable worker in peer mode.
func (s *Server) Replica() *cluster.Replica { return s.replica }

// borrow takes a classifier clone from the pool, cloning a fresh one
// when the pool is momentarily empty (bounded by admission, so the pool
// converges on one clone per admission slot).
func (s *Server) borrow() *core.Classifier {
	select {
	case c := <-s.pool:
		return c
	default:
		return s.proto.Clone()
	}
}

func (s *Server) giveBack(c *core.Classifier) {
	select {
	case s.pool <- c:
	default: // pool full; drop the clone
	}
}

// verdict serves one normalized domain through cache → singleflight →
// admission → detector. The ctx carries the request deadline; admission
// never waits past it.
func (s *Server) verdict(ctx context.Context, n core.NormalizedDomain) (core.Verdict, bool, error) {
	// Warm verdicts return from Do's hit branch without ever reaching
	// admission — a cache hit is a couple of map operations and must stay
	// cheap at 10k+ req/s.
	return s.cache.Do(n.ACE, func() (core.Verdict, error) {
		release, err := s.adm.Admit(ctx)
		if err != nil {
			return core.Verdict{}, err
		}
		defer release()
		c := s.borrow()
		v := c.Verdict(n)
		s.giveBack(c)
		return v, nil
	})
}

// classifyRaw is the batch engine's unit of work: normalize once, then
// cache → detector. Batch items bypass admission (the batch request
// already holds a slot; fan-out width is bounded by the engine).
func (s *Server) classifyRaw(c *core.Classifier, raw string) api.DetectResponse {
	n, err := core.Normalize(raw)
	if err != nil {
		return api.DetectResponse{Input: raw, Error: err.Error()}
	}
	v, cached, err := s.cache.Do(n.ACE, func() (core.Verdict, error) { return c.Verdict(n), nil })
	if err != nil { // unreachable: compute cannot fail
		return api.DetectResponse{Input: raw, Error: err.Error()}
	}
	s.metrics.labels.Add(1)
	if v.Flagged() {
		s.metrics.flagged.Add(1)
	}
	return api.DetectResponse{Verdict: v, Flagged: v.Flagged(), Cached: cached}
}

// Draining reports whether the server has begun graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// nodeID is the identity every body reports: the attached Peer's, which
// the gateway files this node's /metrics under, else the configured one.
func (s *Server) nodeID() string {
	if p := s.peer.Load(); p != nil {
		return p.NodeID()
	}
	return s.cfg.NodeID
}

// Snapshot assembles the full /metrics payload.
func (s *Server) Snapshot() MetricsSnapshot {
	m := s.metrics
	return MetricsSnapshot{
		Node:          s.nodeID(),
		Version:       version.Version,
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: RequestStats{
			Single:    m.single.Load(),
			Batch:     m.batch.Load(),
			Labels:    m.labels.Load(),
			Flagged:   m.flagged.Load(),
			Status2xx: m.status.S2xx.Load(),
			Status4xx: m.status.S4xx.Load(),
			Status429: m.status.S429.Load(),
			Status5xx: m.status.S5xx.Load(),
		},
		Latency:     m.latency.Stats(),
		Cache:       s.cache.Stats(),
		Admission:   s.adm.Stats(),
		BatchEngine: s.batchEng.Metrics().JSON(),
		Index:       indexStats(s.proto.Index()),
		Detector:    s.proto.DetectorStats(),
		Store:       s.storeStats(),
		Runtime:     readRuntimeStats(),
	}
}

// indexStats snapshots the live counters of the candidate index the
// detectors probe, for /metrics.
func indexStats(ix *candidx.Index) IndexStats {
	lookups, hits := ix.Stats()
	st := IndexStats{
		Loaded:      true,
		Format:      string(ix.Bytes()[:8]),
		Fingerprint: fmt.Sprintf("%016x", ix.Fingerprint()),
		Brands:      len(ix.Brands()),
		Keys:        ix.KeyCount(),
		Lookups:     lookups,
		Hits:        hits,
	}
	if lookups > 0 {
		st.HitRate = float64(hits) / float64(lookups)
	}
	return st
}

// Run serves on addr until ctx is cancelled, then drains gracefully
// (cluster.ListenAndDrain).
func (s *Server) Run(ctx context.Context, addr string, ready chan<- net.Addr) error {
	return cluster.ListenAndDrain(ctx, addr, ready, s.Handler(), &s.draining)
}
