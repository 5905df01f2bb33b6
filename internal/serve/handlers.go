package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/version"
)

// Handler returns the service's HTTP mux:
//
//	POST /v1/detect        {"domain":"..."}            → api.DetectResponse
//	POST /v1/detect/batch  {"domains":["...",...]}     → api.BatchResponse
//	GET  /healthz                                      → liveness: ok | draining
//	GET  /readyz                                       → readiness: warm + admission headroom
//	GET  /clusterz                                     → peer-mode membership view
//	GET  /metrics                                      → MetricsSnapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", s.instrument(s.handleDetect))
	mux.HandleFunc("POST /v1/detect/batch", s.instrument(s.handleBatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /clusterz", s.handleClusterz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.replica.Register(mux) // the peer endpoints, outside instrument()
	return mux
}

// instrument wraps a handler with the latency histogram, status
// counters and the per-request deadline.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &cluster.StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		h(sw, r.WithContext(ctx))
		cancel()
		s.metrics.status.Observe(sw.Code)
		s.metrics.latency.Observe(time.Since(start))
	}
}

// writeError maps the error taxonomy to status codes: decode errors are
// 400/413, admission saturation is 429 + Retry-After, deadline blowouts
// are 503.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, api.ErrBatchTooLarge), errors.Is(err, api.ErrTooLarge):
		api.WriteJSON(w, http.StatusRequestEntityTooLarge, api.ErrorResponse{Error: err.Error()})
	case errors.Is(err, api.ErrMalformed):
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfterSeconds()))
		api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		api.WriteJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{Error: "deadline exceeded"})
	default:
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
	}
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.metrics.single.Add(1)
	req, err := api.DecodeDetect(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	n, err := core.Normalize(req.Domain)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{
			Error: fmt.Sprintf("invalid domain %q: %v", req.Domain, err),
		})
		return
	}
	v, cached, err := s.verdict(r.Context(), n)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.labels.Add(1)
	if v.Flagged() {
		s.metrics.flagged.Add(1)
	}
	// Response writing goes through the append codec (byte-identical to
	// the stdlib encoder, zero allocations): at cluster QPS the worker's
	// response marshal was its largest per-request allocation.
	resp := api.DetectResponse{Verdict: v, Flagged: v.Flagged(), Cached: cached}
	api.WriteDetect(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batch.Add(1)
	req, err := api.DecodeBatch(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), api.MaxBatch)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// One admission slot covers the whole batch; the engine bounds the
	// fan-out width internally.
	release, err := s.adm.Admit(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	resp := api.BatchResponse{Count: len(req.Domains), Results: make([]api.DetectResponse, len(req.Domains))}
	err = s.batchEng.Run(r.Context(), len(req.Domains), func(c *core.Classifier, i int) error {
		resp.Results[i] = s.classifyRaw(c, req.Domains[i])
		return nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	for i := range resp.Results {
		if resp.Results[i].Flagged {
			resp.Flagged++
		}
	}
	api.WriteBatch(w, http.StatusOK, &resp)
}

// handleHealthz is pure liveness: "is this process up and not
// draining". Load balancers use it to stop routing during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]any{
		"status": status, "node": s.nodeID(), "version": version.Version,
	})
}

// handleReadyz is readiness, distinct from liveness: a live node is not
// ready until detector warm-up has completed (first-request latency
// would otherwise pay the raster-cache build) and admission has
// headroom (a saturated node should stop receiving new connections
// before it starts shedding them).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	warm := s.Warmed()
	saturated := s.adm.Saturated()
	ready := !s.Draining() && warm && !saturated
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "unready", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status": status, "node": s.nodeID(), "version": version.Version,
		"warm": warm, "admissionSaturated": saturated, "draining": s.Draining(),
	}
	if p := s.peer.Load(); p != nil {
		st := p.Status()
		body["cluster"] = map[string]any{"joined": st.Joined, "epoch": st.View.Epoch}
	}
	api.WriteJSON(w, code, body)
}

// handleClusterz reports the worker's view of cluster membership (peer
// mode) or its standalone status.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	if p := s.peer.Load(); p != nil {
		api.WriteJSON(w, http.StatusOK, p.Status())
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"mode": "standalone", "node": s.cfg.NodeID, "version": version.Version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.Snapshot())
}
