// Package api is the detection service's wire format: the JSON request
// and response bodies spoken by the single-node server (internal/serve),
// the cluster gateway (internal/cluster), and the benchmark's load
// generator (bench/e2e). Factoring the types out of the server means the
// gateway can split, forward and reassemble bodies without importing the
// serving layer (which imports the cluster layer — the dependency only
// works one way), and guarantees the gateway is wire-compatible with the
// workers it fronts: same decoder, same strictness, same error taxonomy.
//
// Decoding is strict everywhere: unknown fields, trailing garbage and
// oversized bodies are rejected — a detection API should never guess at
// malformed input, and a gateway that silently dropped fields a worker
// would reject could mask attacks.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"idnlab/internal/core"
)

// DetectRequest is the POST /v1/detect body.
type DetectRequest struct {
	Domain string `json:"domain"`
}

// BatchRequest is the POST /v1/detect/batch body.
type BatchRequest struct {
	Domains []string `json:"domains"`
}

// DetectResponse is one classified domain. For invalid inputs only
// Input and Error are set. Field order (Verdict first) is pinned by the
// serving layer's golden tests — do not reorder.
type DetectResponse struct {
	core.Verdict
	Flagged bool   `json:"flagged"`
	Cached  bool   `json:"cached"`
	Input   string `json:"input,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/detect/batch reply; Results aligns
// index-for-index with the request's Domains.
type BatchResponse struct {
	Count   int              `json:"count"`
	Flagged int              `json:"flagged"`
	Results []DetectResponse `json:"results"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// The request-size limits of the wire contract. Worker and gateway
// share them, so the gateway never forwards a body or a sub-batch its
// workers would refuse.
const (
	// MaxBatch bounds the labels of one batch request.
	MaxBatch = 256
	// MaxBodyBytes bounds a request body.
	MaxBodyBytes = 1 << 20
)

// Decode errors, distinguished so handlers map them to status codes:
// ErrMalformed → 400, ErrTooLarge / ErrBatchTooLarge → 413.
var (
	ErrMalformed     = errors.New("malformed request body")
	ErrTooLarge      = errors.New("request body too large")
	ErrBatchTooLarge = errors.New("batch exceeds configured maximum")
)

// decodeJSON strictly decodes one JSON object from r into dst: unknown
// fields, trailing garbage and oversized bodies (surfaced by the
// handler's http.MaxBytesReader) are all rejected.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return ErrTooLarge
		}
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data", ErrMalformed)
	}
	return nil
}

// DecodeDetect parses and validates a single-detect body. It is the
// surface the fuzz harness drives: any byte sequence must produce either
// a request or an error, never a panic.
func DecodeDetect(r io.Reader) (DetectRequest, error) {
	var req DetectRequest
	if err := decodeJSON(r, &req); err != nil {
		return DetectRequest{}, err
	}
	if req.Domain == "" {
		return DetectRequest{}, fmt.Errorf("%w: missing \"domain\"", ErrMalformed)
	}
	return req, nil
}

// DecodeBatch parses and validates a batch body against the configured
// size cap. Exceeding the cap is ErrBatchTooLarge (413), not a 400: the
// request is well-formed, just oversized.
func DecodeBatch(r io.Reader, maxBatch int) (BatchRequest, error) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		return BatchRequest{}, err
	}
	if len(req.Domains) == 0 {
		return BatchRequest{}, fmt.Errorf("%w: missing \"domains\"", ErrMalformed)
	}
	if len(req.Domains) > maxBatch {
		return BatchRequest{}, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(req.Domains), maxBatch)
	}
	return req, nil
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// DecodeBatchResponseBytes parses a batch reply. Its one caller is the
// benchmark's layer probe (bench/e2e); it goes when that probe is
// retired.
func DecodeBatchResponseBytes(data []byte) (BatchResponse, error) {
	var r BatchResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return BatchResponse{}, err
	}
	return r, nil
}
