// codec.go is the wire format's zero-allocation hot path: append-based
// encoders for every request/response body the serving tier speaks,
// byte-identical to what encoding/json produces for the same values.
//
// Why hand-rolled: the indexed detector answers a single-domain lookup
// in ~8 µs, but the stock wire path spends several times that in
// reflection-driven marshalling — four encoding/json allocations per
// proxied request (gateway forward, worker decode, worker encode,
// gateway reassembly). At gateway QPS the codec, not the detector, was
// the dominant per-request cost. The append encoders below write into a
// caller-supplied buffer (pooled via GetBuf/PutBuf on the response-write
// path), allocate nothing, and are pinned to encoding/json's exact
// output bytes by golden, randomized-equivalence and fuzz tests — so
// gateways, old clients and new workers can be mixed freely:
// the optimization is invisible on the wire.
//
// Byte-identity contract (verified against the Go 1.2x encoder):
//   - strings escape exactly like encoding/json with EscapeHTML on:
//     ", \, control bytes, <, >, &, U+2028/U+2029, and invalid UTF-8
//     coerced to U+FFFD;
//   - floats format as ES6 number-to-string ('f' within [1e-6, 1e21),
//     'e' outside, exponent unpadded);
//   - field order and omitempty behavior match the struct tags in
//     wire.go (and core.Verdict) literally.
//
// Non-finite floats are the one divergence in shape, not bytes:
// encoding/json fails the whole Marshal with *UnsupportedValueError;
// the append encoders return ErrNonFinite and leave the buffer's extra
// bytes unspecified. Callers fall back to the stdlib path (which fails
// identically on the wire: headers sent, no body).
package api

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// ErrNonFinite reports a NaN or ±Inf float, which JSON cannot carry.
// It is the only error the append encoders can return.
var ErrNonFinite = errors.New("api: non-finite float is not representable in JSON")

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, escaping exactly as
// encoding/json does with HTML escaping enabled (the json.Marshal
// default, and therefore what every golden test in this repo pins).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028/U+2029 are valid JSON but break JSONP; encoding/json
		// escapes them unconditionally, so we must too.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in encoding/json's ES6-style format.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, ErrNonFinite
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, exactly as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendDetectRequest appends req's JSON encoding to dst and returns
// the extended buffer. Infallible: the body carries no floats.
func AppendDetectRequest(dst []byte, req *DetectRequest) []byte {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, req.Domain)
	return append(dst, '}')
}

// AppendBatchRequest appends req's JSON encoding to dst. A nil Domains
// slice encodes as null, matching encoding/json.
func AppendBatchRequest(dst []byte, req *BatchRequest) []byte {
	dst = append(dst, `{"domains":`...)
	if req.Domains == nil {
		return append(append(dst, "null"...), '}')
	}
	dst = append(dst, '[')
	for i, d := range req.Domains {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, d)
	}
	return append(dst, ']', '}')
}

func appendHomograph(dst []byte, m *core.HomographMatch) ([]byte, error) {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, m.Domain)
	dst = append(dst, `,"unicode":`...)
	dst = appendString(dst, m.Unicode)
	dst = append(dst, `,"brand":`...)
	dst = appendString(dst, m.Brand)
	dst = append(dst, `,"ssim":`...)
	dst, err := appendFloat(dst, m.SSIM)
	return append(dst, '}'), err
}

func appendSemantic(dst []byte, m *core.SemanticMatch) []byte {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, m.Domain)
	dst = append(dst, `,"unicode":`...)
	dst = appendString(dst, m.Unicode)
	dst = append(dst, `,"brand":`...)
	dst = appendString(dst, m.Brand)
	dst = append(dst, `,"keyword":`...)
	dst = appendString(dst, m.Keyword)
	return append(dst, '}')
}

func appendContribution(dst []byte, c *feat.Contribution) ([]byte, error) {
	dst = append(dst, `{"feature":`...)
	dst = appendString(dst, c.Feature)
	dst = append(dst, `,"value":`...)
	dst, err := appendFloat(dst, c.Value)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"impact":`...)
	dst, err = appendFloat(dst, c.Impact)
	return append(dst, '}'), err
}

func appendStatistical(dst []byte, m *core.StatMatch) ([]byte, error) {
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, m.Domain)
	dst = append(dst, `,"unicode":`...)
	dst = appendString(dst, m.Unicode)
	dst = append(dst, `,"score":`...)
	dst, err := appendFloat(dst, m.Score)
	if err != nil {
		return dst, err
	}
	if len(m.Top) > 0 { // omitempty
		dst = append(dst, `,"top":[`...)
		for i := range m.Top {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendContribution(dst, &m.Top[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendConfidence(dst []byte, c *core.EnsembleConfidence) ([]byte, error) {
	dst = append(dst, `{"homograph":`...)
	dst, err := appendFloat(dst, c.Homograph)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"semantic":`...)
	if dst, err = appendFloat(dst, c.Semantic); err != nil {
		return dst, err
	}
	dst = append(dst, `,"statistical":`...)
	dst, err = appendFloat(dst, c.Statistical)
	return append(dst, '}'), err
}

// AppendDetectResponse appends r's JSON encoding to dst — the embedded
// core.Verdict fields first (Verdict field order is pinned by the
// serving layer's golden tests), then the response envelope.
func AppendDetectResponse(dst []byte, r *DetectResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"domain":`...)
	dst = appendString(dst, r.Domain)
	dst = append(dst, `,"unicode":`...)
	dst = appendString(dst, r.Unicode)
	dst = append(dst, `,"idn":`...)
	dst = appendBool(dst, r.IDN)
	if r.Homograph != nil {
		dst = append(dst, `,"homograph":`...)
		if dst, err = appendHomograph(dst, r.Homograph); err != nil {
			return dst, err
		}
	}
	if r.Semantic != nil {
		dst = append(dst, `,"semantic":`...)
		dst = appendSemantic(dst, r.Semantic)
	}
	if r.Statistical != nil {
		dst = append(dst, `,"statistical":`...)
		if dst, err = appendStatistical(dst, r.Statistical); err != nil {
			return dst, err
		}
	}
	if r.Confidence != nil {
		dst = append(dst, `,"confidence":`...)
		if dst, err = appendConfidence(dst, r.Confidence); err != nil {
			return dst, err
		}
	}
	if r.Suspicion != "" {
		dst = append(dst, `,"suspicion":`...)
		dst = appendString(dst, r.Suspicion)
	}
	dst = append(dst, `,"flagged":`...)
	dst = appendBool(dst, r.Flagged)
	dst = append(dst, `,"cached":`...)
	dst = appendBool(dst, r.Cached)
	if r.Input != "" {
		dst = append(dst, `,"input":`...)
		dst = appendString(dst, r.Input)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	return append(dst, '}'), nil
}

// AppendBatchResponse appends r's JSON encoding to dst. A nil Results
// slice encodes as null, matching encoding/json.
func AppendBatchResponse(dst []byte, r *BatchResponse) ([]byte, error) {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	dst = append(dst, `,"flagged":`...)
	dst = strconv.AppendInt(dst, int64(r.Flagged), 10)
	dst = append(dst, `,"results":`...)
	if r.Results == nil {
		return append(append(dst, "null"...), '}'), nil
	}
	dst = append(dst, '[')
	var err error
	for i := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = AppendDetectResponse(dst, &r.Results[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']', '}'), nil
}

// Buf is a pooled scratch buffer for the append codec. Get one with
// GetBuf, encode into B, and return it with PutBuf when the encoded
// bytes are no longer referenced. Ownership rule: PutBuf hands the
// backing array to the next GetBuf caller — never retain B (or any
// slice of it) past PutBuf, and never PutBuf a buffer whose bytes were
// handed to an API that may read them after returning (upstream
// request bodies, which a retry may resend, keep plain allocations for
// exactly that reason).
type Buf struct{ B []byte }

// maxPooledBuf caps what Put returns to the pool so one giant batch
// body cannot pin megabytes in every P's pool shard.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// GetBuf returns a scratch buffer with len(B) == 0.
func GetBuf() *Buf { return bufPool.Get().(*Buf) }

// PutBuf returns b to the pool (oversized buffers are dropped for GC).
func PutBuf(b *Buf) {
	if cap(b.B) > maxPooledBuf {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}

// WriteEncoded writes pre-encoded JSON with WriteJSON's Content-Type
// and the given status. To match WriteJSON byte for byte, body ends in
// the newline json.Encoder.Encode appends (the serving layer's golden
// tests pin it).
func WriteEncoded(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// WriteDetect writes r as the response body through the append codec,
// byte-identical to WriteJSON(w, code, r). The non-finite-float
// fallback defers to the stdlib path, which fails the same way
// json.Encoder does: headers sent, no body.
func WriteDetect(w http.ResponseWriter, code int, r *DetectResponse) {
	buf := GetBuf()
	b, err := AppendDetectResponse(buf.B[:0], r)
	if err != nil {
		PutBuf(buf)
		WriteJSON(w, code, r)
		return
	}
	b = append(b, '\n')
	WriteEncoded(w, code, b)
	buf.B = b
	PutBuf(buf)
}

// WriteBatch writes r as the response body through the append codec,
// byte-identical to WriteJSON(w, code, r).
func WriteBatch(w http.ResponseWriter, code int, r *BatchResponse) {
	buf := GetBuf()
	b, err := AppendBatchResponse(buf.B[:0], r)
	if err != nil {
		PutBuf(buf)
		WriteJSON(w, code, r)
		return
	}
	b = append(b, '\n')
	WriteEncoded(w, code, b)
	buf.B = b
	PutBuf(buf)
}
