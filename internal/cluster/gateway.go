package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/core"
	"idnlab/internal/metricsutil"
	"idnlab/internal/pipeline"
	"idnlab/internal/version"
)

// GatewayConfig parameterizes a Gateway. The zero value selects sane
// defaults throughout.
type GatewayConfig struct {
	// NodeID names the gateway in health bodies (default generated).
	NodeID string
	// Membership and Router parameterize the cluster plumbing.
	Membership MembershipConfig
	Router     RouterConfig
	// MinReady is the alive-node count below which /readyz reports 503
	// (default 1).
	MinReady int
}

// requestTimeout is the gateway's per-request deadline, covering all
// retries: deliberately above the workers' 1s so a failover retry still
// fits.
const requestTimeout = 2 * time.Second

// scatterWorkers bounds concurrent sub-batch fan-out; the work is
// I/O-bound, so it exceeds GOMAXPROCS deliberately.
const scatterWorkers = 16

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.NodeID == "" {
		c.NodeID = "gateway"
	}
	if c.MinReady <= 0 {
		c.MinReady = 1
	}
	return c
}

// gwMetrics are the gateway's own live counters (per-node detector
// metrics live on the workers and are merged at scrape time).
type gwMetrics struct {
	start time.Time

	single      atomic.Uint64
	batch       atomic.Uint64
	labels      atomic.Uint64
	subBatches  atomic.Uint64
	localErrors atomic.Uint64 // invalid domains answered at the edge
	rejoins     atomic.Uint64 // dead nodes resurrected by membership

	status  StatusCounts
	latency metricsutil.Histogram
}

// subBatch is one owner's slice of a batch request: the original
// request indices plus the normalized ACE domains bound for that owner.
// key is any member domain — all share an owner at grouping time, and
// the router re-resolves candidates from it, so even if the ring moves
// mid-flight the sub-batch lands somewhere correct (at worst a cache
// miss on a non-owner).
type subBatch struct {
	key     string
	indices []int
	domains []string
}

// subResult is one sub-batch's reply, split but not decoded: items[j]
// is the worker's answer to the sub-batch's domain j, byte for byte.
type subResult struct {
	flagged int
	items   []json.RawMessage
}

// shedError propagates a worker's 429 (with its Retry-After hint) as
// the whole batch's outcome — partial batches would break the
// index-aligned contract.
type shedError struct{ retryAfter string }

func (e *shedError) Error() string { return "worker shed sub-batch" }

// Gateway fronts N idnserve workers: consistent-hash routing on single
// detects, scatter/gather on batches, merged metrics, membership at
// /clusterz, and worker registration at /v1/join.
type Gateway struct {
	cfg      GatewayConfig
	mem      *Membership
	router   *Router
	scatter  *pipeline.Engine[struct{}]
	metrics  *gwMetrics
	draining atomic.Bool
}

// NewGateway builds the gateway and its scatter engine.
func NewGateway(cfg GatewayConfig) *Gateway {
	cfg = cfg.withDefaults()
	mem := NewMembership(cfg.Membership)
	g := &Gateway{
		cfg:     cfg,
		mem:     mem,
		router:  NewRouter(mem, cfg.Router),
		metrics: &gwMetrics{start: time.Now()},
	}
	mem.OnRejoin(func(string) { g.metrics.rejoins.Add(1) })
	// Sub-batch fan-out reuses the scan engine: Batch=1 because each
	// item is itself a network round-trip (one goroutine per sub-batch,
	// at most scatterWorkers), each reply written at its sub-batch's
	// index, per-stage metrics surfaced at /metrics.
	g.scatter = pipeline.New(
		pipeline.Config{Stage: "gateway.scatter", Workers: scatterWorkers, Batch: 1},
		func() struct{} { return struct{}{} })
	return g
}

// Membership exposes the registry (tests and Run's sweeper).
func (g *Gateway) Membership() *Membership { return g.mem }

// Draining reports whether graceful shutdown has begun.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// forwardSubBatch sends one owner's sub-batch — a slice of a client
// batch — through the router and splits the worker's reply into its
// items. Infrastructure failures and sheds surface as errors that fail
// the whole sub-batch with one taxonomy-mapped status.
func (g *Gateway) forwardSubBatch(ctx context.Context, sb subBatch) (subResult, error) {
	body := api.AppendBatchRequest(nil, &api.BatchRequest{Domains: sb.domains})
	rep, err := g.router.Do(ctx, sb.key, http.MethodPost, "/v1/detect/batch", body)
	if err != nil {
		return subResult{}, err
	}
	switch rep.Status {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		rep.Release()
		return subResult{}, &shedError{retryAfter: rep.RetryAfter}
	default:
		rep.Release()
		return subResult{}, fmt.Errorf("node %s: unexpected status %d", rep.NodeID, rep.Status)
	}
	flagged, items, err := splitBatchReply(rep.Body, len(sb.domains))
	rep.Release()
	if err != nil {
		return subResult{}, fmt.Errorf("node %s: bad batch reply: %v", rep.NodeID, err)
	}
	return subResult{flagged: flagged, items: items}, nil
}

// splitBatchReply cuts a worker's batch reply into its items' bytes
// without decoding them: encoding/json checks the whole reply and
// copies each result out as a RawMessage. The reply is accepted only
// if it answers exactly want names, at most that many flagged, and
// every result is an object.
func splitBatchReply(body []byte, want int) (flagged int, items []json.RawMessage, err error) {
	var reply struct {
		Count, Flagged int
		Results        []json.RawMessage
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, nil, err
	}
	if reply.Count != want || len(reply.Results) != want {
		return 0, nil, fmt.Errorf("count %d, %d results for %d domains", reply.Count, len(reply.Results), want)
	}
	if reply.Flagged < 0 || reply.Flagged > want {
		return 0, nil, fmt.Errorf("%d flagged of %d", reply.Flagged, want)
	}
	for i, item := range reply.Results {
		if len(item) == 0 || item[0] != '{' {
			return 0, nil, fmt.Errorf("result %d is not an object", i)
		}
	}
	return reply.Flagged, reply.Results, nil
}

// Handler returns the gateway's HTTP mux:
//
//	POST /v1/detect        route to ring owner, pass through
//	POST /v1/detect/batch  split by owner, scatter/gather, reassemble
//	POST /v1/join          worker registration + heartbeat
//	GET  /healthz          gateway liveness; 503 while draining
//	GET  /readyz           cluster readiness (>= MinReady alive nodes)
//	GET  /clusterz         membership + ring + router counters
//	GET  /metrics          gateway counters + merged per-node metrics
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", g.instrument(g.handleDetect))
	mux.HandleFunc("POST /v1/detect/batch", g.instrument(g.handleBatch))
	mux.HandleFunc("POST /v1/join", g.handleJoin)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /clusterz", g.handleClusterz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

func (g *Gateway) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		sw := &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		g.metrics.status.Observe(sw.Code)
		g.metrics.latency.Observe(time.Since(start))
	}
}

// writeError maps the tier's error taxonomy to statuses: decode errors
// 400/413, sheds 429 with the worker's Retry-After, exhausted rings and
// deadlines 503.
func writeError(w http.ResponseWriter, err error) {
	var shed *shedError
	switch {
	case errors.Is(err, api.ErrBatchTooLarge), errors.Is(err, api.ErrTooLarge):
		api.WriteJSON(w, http.StatusRequestEntityTooLarge, api.ErrorResponse{Error: err.Error()})
	case errors.Is(err, api.ErrMalformed):
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
	case errors.As(err, &shed):
		if shed.retryAfter != "" {
			w.Header().Set("Retry-After", shed.retryAfter)
		} else {
			w.Header().Set("Retry-After", "1")
		}
		api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: "cluster saturated"})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		api.WriteJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{Error: "deadline exceeded"})
	case errors.Is(err, ErrNoNodes), errors.Is(err, ErrUnavailable):
		api.WriteJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{Error: err.Error()})
	default:
		api.WriteJSON(w, http.StatusBadGateway, api.ErrorResponse{Error: err.Error()})
	}
}

func (g *Gateway) handleDetect(w http.ResponseWriter, r *http.Request) {
	g.metrics.single.Add(1)
	req, err := api.DecodeDetect(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := core.Normalize(req.Domain)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{
			Error: fmt.Sprintf("invalid domain %q: %v", req.Domain, err),
		})
		return
	}
	// The ACE form is what travels: it is the partition key, the worker's
	// cache key, and re-normalizes in the worker for free.
	body := api.AppendDetectRequest(nil, &api.DetectRequest{Domain: n.ACE})
	rep, err := g.router.Do(r.Context(), n.ACE, http.MethodPost, "/v1/detect", body)
	if err != nil {
		writeError(w, err)
		return
	}
	g.metrics.labels.Add(1)
	g.passthrough(w, rep)
}

// passthrough relays a routed Reply verbatim — status, Retry-After and
// body — then releases the pooled body.
func (g *Gateway) passthrough(w http.ResponseWriter, rep Reply) {
	if rep.RetryAfter != "" {
		w.Header().Set("Retry-After", rep.RetryAfter)
	}
	api.WriteEncoded(w, rep.Status, rep.Body)
	rep.Release()
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.metrics.batch.Add(1)
	req, err := api.DecodeBatch(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), api.MaxBatch)
	if err != nil {
		writeError(w, err)
		return
	}
	// Normalize at the edge: invalid entries are answered locally (the
	// same per-item error shape a worker produces), valid ones grouped
	// by ring owner. items[i] is the encoded answer to domain i.
	items := make([][]byte, len(req.Domains))
	groups := make(map[string]int) // owner ID → index in subs
	subs := make([]subBatch, 0, 4)
	for i, raw := range req.Domains {
		n, err := core.Normalize(raw)
		if err != nil {
			g.metrics.localErrors.Add(1)
			items[i], _ = api.AppendDetectResponse(nil, &api.DetectResponse{Input: raw, Error: err.Error()})
			continue
		}
		owner, ok := g.router.Owner(n.ACE)
		if !ok {
			writeError(w, ErrNoNodes)
			return
		}
		at, seen := groups[owner.ID]
		if !seen {
			at = len(subs)
			groups[owner.ID] = at
			subs = append(subs, subBatch{key: n.ACE})
		}
		sb := &subs[at]
		sb.indices = append(sb.indices, i)
		sb.domains = append(sb.domains, n.ACE)
	}
	flagged := 0
	if len(subs) > 0 {
		results := make([]subResult, len(subs))
		err = g.scatter.Run(r.Context(), len(subs), func(_ struct{}, j int) error {
			g.metrics.subBatches.Add(1)
			var err error
			results[j], err = g.forwardSubBatch(r.Context(), subs[j])
			return err
		})
		if err != nil {
			writeError(w, err)
			return
		}
		for j, res := range results {
			flagged += res.flagged
			for k, idx := range subs[j].indices {
				items[idx] = res.items[k]
			}
		}
	}
	g.metrics.labels.Add(uint64(len(req.Domains)))
	buf := api.GetBuf()
	b := append(buf.B[:0], `{"count":`...)
	b = strconv.AppendInt(b, int64(len(req.Domains)), 10)
	b = append(b, `,"flagged":`...)
	b = strconv.AppendInt(b, int64(flagged), 10)
	b = append(b, `,"results":[`...)
	for i, item := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, item...)
	}
	b = append(b, "]}\n"...)
	api.WriteEncoded(w, http.StatusOK, b)
	buf.B = b
	api.PutBuf(buf)
}

func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req JoinRequest
	if err := dec.Decode(&req); err != nil || req.ID == "" || req.Addr == "" {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "join requires id and addr"})
		return
	}
	if _, _, err := net.SplitHostPort(req.Addr); err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("bad addr %q: %v", req.Addr, err)})
		return
	}
	g.mem.Join(req.ID, req.Addr)
	api.WriteJSON(w, http.StatusOK, JoinResponse{
		View:        g.mem.Snapshot(),
		HeartbeatMs: g.mem.HeartbeatInterval().Milliseconds(),
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if g.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]any{
		"status": status, "node": g.cfg.NodeID, "version": version.Version, "role": "gateway",
	})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	alive := g.mem.AliveCount()
	ready := !g.Draining() && alive >= g.cfg.MinReady
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "unready", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]any{
		"status": status, "node": g.cfg.NodeID, "version": version.Version, "role": "gateway",
		"aliveNodes": alive, "minReady": g.cfg.MinReady, "epoch": g.mem.Epoch(),
	})
}

func (g *Gateway) handleClusterz(w http.ResponseWriter, r *http.Request) {
	view := g.mem.Snapshot()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":       view.Epoch,
		"heartbeatMs": g.mem.HeartbeatInterval().Milliseconds(),
		"nodes":       view.Nodes,
		"ringSize":    g.router.Ring().Len(),
		"router":      g.router.Stats(),
	})
}

// nodeMetricsDigest is the slice of a worker's /metrics the gateway
// aggregates (the raw snapshot rides alongside it unmodified).
type nodeMetricsDigest struct {
	Requests struct {
		Labels  uint64 `json:"labels"`
		Flagged uint64 `json:"flagged"`
	} `json:"requests"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Size      int    `json:"size"`
	} `json:"cache"`
	Store struct {
		Loaded          bool   `json:"loaded"`
		WarmBootEntries int    `json:"warmBootEntries"`
		SyncIngested    uint64 `json:"syncIngested"`
		ReplicationIn   uint64 `json:"replicationIn"`
	} `json:"store"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	replies := g.router.Broadcast(ctx, "/metrics")

	perNode := make(map[string]json.RawMessage, len(replies))
	var agg struct {
		Labels, Flagged, Hits, Misses, Coalesced uint64
		CacheSize                                int
		Reporting                                int

		DurableNodes    int
		WarmBootEntries int
		SyncIngested    uint64
		ReplicationIn   uint64
	}
	for id, rep := range replies {
		if rep.Status != http.StatusOK || len(rep.Body) == 0 {
			perNode[id] = json.RawMessage(`{"error":"unreachable"}`)
			continue
		}
		perNode[id] = json.RawMessage(rep.Body)
		var d nodeMetricsDigest
		if json.Unmarshal(rep.Body, &d) == nil {
			agg.Labels += d.Requests.Labels
			agg.Flagged += d.Requests.Flagged
			agg.Hits += d.Cache.Hits
			agg.Misses += d.Cache.Misses
			agg.Coalesced += d.Cache.Coalesced
			agg.CacheSize += d.Cache.Size
			agg.Reporting++
			if d.Store.Loaded {
				agg.DurableNodes++
				agg.WarmBootEntries += d.Store.WarmBootEntries
				agg.SyncIngested += d.Store.SyncIngested
				agg.ReplicationIn += d.Store.ReplicationIn
			}
		}
	}
	hitRate := 0.0
	if total := agg.Hits + agg.Coalesced + agg.Misses; total > 0 {
		hitRate = float64(agg.Hits+agg.Coalesced) / float64(total)
	}
	m := g.metrics
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"node":          g.cfg.NodeID,
		"version":       version.Version,
		"uptimeSeconds": time.Since(m.start).Seconds(),
		"gateway": map[string]any{
			"single":      m.single.Load(),
			"batch":       m.batch.Load(),
			"labels":      m.labels.Load(),
			"subBatches":  m.subBatches.Load(),
			"localErrors": m.localErrors.Load(),
			"status2xx":   m.status.S2xx.Load(),
			"status4xx":   m.status.S4xx.Load(),
			"status429":   m.status.S429.Load(),
			"status5xx":   m.status.S5xx.Load(),
			"rejoins":     m.rejoins.Load(),
		},
		"latency": m.latency.Stats(),
		"scatter": g.scatter.Metrics().JSON(),
		"router":  g.router.Stats(),
		"cluster": map[string]any{
			"epoch":            g.mem.Epoch(),
			"reportingNodes":   agg.Reporting,
			"labels":           agg.Labels,
			"flagged":          agg.Flagged,
			"hits":             agg.Hits,
			"misses":           agg.Misses,
			"coalesced":        agg.Coalesced,
			"cacheSizeTotal":   agg.CacheSize,
			"cacheHitRate":     hitRate,
			"partitionedCache": true,
			// Durable-tier aggregates: how much restart pain the store
			// absorbed cluster-wide (warm boots, replication, sync
			// catch-up) — the restart smoke asserts against these.
			"store": map[string]any{
				"durableNodes":    agg.DurableNodes,
				"warmBootEntries": agg.WarmBootEntries,
				"syncIngested":    agg.SyncIngested,
				"replicationIn":   agg.ReplicationIn,
			},
		},
		"nodes": perNode,
	})
}

// Run serves on addr until ctx is cancelled, then drains gracefully
// (ListenAndDrain). The membership sweeper runs for the lifetime of the
// listener.
func (g *Gateway) Run(ctx context.Context, addr string, ready chan<- net.Addr) error {
	bg, stop := context.WithCancel(context.Background())
	defer stop()
	go g.mem.Run(bg)
	return ListenAndDrain(ctx, addr, ready, g.Handler(), &g.draining)
}
