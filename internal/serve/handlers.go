package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/pipeline"
	"idnlab/internal/version"
)

// The wire format lives in internal/api so the cluster gateway speaks
// byte-identical request/response bodies (same strict decoder, same
// error taxonomy). The aliases below keep the serving layer's internals
// and tests reading naturally.

type (
	detectRequest  = api.DetectRequest
	batchRequest   = api.BatchRequest
	detectResponse = api.DetectResponse
	batchResponse  = api.BatchResponse
	errorResponse  = api.ErrorResponse
)

var (
	errMalformed     = api.ErrMalformed
	errTooLarge      = api.ErrTooLarge
	errBatchTooLarge = api.ErrBatchTooLarge
)

// decodeDetectRequest and decodeBatchRequest are the fuzz-harness entry
// points (FuzzDecodeDetect / FuzzDecodeBatch drive them with arbitrary
// bytes); they delegate to the shared strict decoder.
func decodeDetectRequest(r io.Reader) (detectRequest, error) {
	return api.DecodeDetect(r)
}

func decodeBatchRequest(r io.Reader, maxBatch int) (batchRequest, error) {
	return api.DecodeBatch(r, maxBatch)
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/detect        {"domain":"..."}            → detectResponse
//	POST /v1/detect/batch  {"domains":["...",...]}     → batchResponse
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
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		h(sw, r.WithContext(ctx))
		cancel()
		s.metrics.status.Observe(sw.Code)
		s.metrics.latency.Observe(time.Since(start))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) { api.WriteJSON(w, code, v) }

// writeError maps the error taxonomy to status codes: decode errors are
// 400/413, admission saturation is 429 + Retry-After, deadline blowouts
// are 503.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBatchTooLarge), errors.Is(err, errTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
	case errors.Is(err, errMalformed):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "deadline exceeded"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.metrics.single.Add(1)
	req, err := decodeDetectRequest(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	n, err := core.Normalize(req.Domain)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{
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
	resp := detectResponse{Verdict: v, Flagged: v.Flagged(), Cached: cached}
	api.WriteDetect(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batch.Add(1)
	req, err := decodeBatchRequest(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), api.MaxBatch)
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
	resp := batchResponse{Count: len(req.Domains), Results: make([]detectResponse, 0, len(req.Domains))}
	err = s.batchEng.Stream(r.Context(), pipeline.FromSlice(req.Domains), func(e batchEntry) error {
		if e.resp.Flagged {
			resp.Flagged++
		}
		resp.Results = append(resp.Results, e.resp)
		return nil
	})
	if err != nil {
		s.writeError(w, err)
		return
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
	writeJSON(w, code, map[string]any{
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
	writeJSON(w, code, body)
}

// handleClusterz reports the worker's view of cluster membership (peer
// mode) or its standalone status.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	if p := s.peer.Load(); p != nil {
		writeJSON(w, http.StatusOK, p.Status())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode": "standalone", "node": s.cfg.NodeID, "version": version.Version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
