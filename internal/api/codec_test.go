package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// The append codec's entire value proposition is byte-identity with
// encoding/json: the serving layer's golden tests, every deployed
// client, and the gateway's scatter/gather reassembly all assume the
// stdlib bytes. These tests pin that equivalence three ways — on the
// golden fixtures, on adversarial string/float corpora, and on
// randomized structures.

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCodecGoldenEquivalence(t *testing.T) {
	ens := ensembleResponse()
	got, err := AppendDetectResponse(nil, &ens)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != ensembleGolden {
		t.Errorf("codec drifted from ensemble golden:\n got %s\nwant %s", got, ensembleGolden)
	}
	legacy := DetectResponse{Verdict: core.Verdict{Domain: "example.com", Unicode: "example.com"}}
	if got, err = AppendDetectResponse(nil, &legacy); err != nil {
		t.Fatal(err)
	}
	if string(got) != legacyGolden {
		t.Errorf("codec drifted from legacy golden:\n got %s\nwant %s", got, legacyGolden)
	}
}

// trickyStrings exercises every escaping branch: HTML-escaped bytes,
// two-char escapes, \u00xx control bytes, invalid UTF-8 (both lone
// bytes and truncated sequences), U+2028/U+2029, surrogate-adjacent
// runes, and plain multibyte text.
var trickyStrings = []string{
	"",
	"example.com",
	"xn--pple-43d.com",
	"аpple.com", // Cyrillic а
	`quote " backslash \ slash /`,
	"<script>&amp;</script>",
	"tab\tnewline\ncr\rbell\x07null\x00",
	"backspace\bformfeed\f",
	"\x01\x02\x03\x1e\x1f\x20",
	"invalid utf8 \xff\xfe lone continuation \x80",
	"truncated multibyte \xe2\x82",
	"line sep \u2028 para sep \u2029",
	"emoji \U0001F600 and CJK 漢字",
	"mixed \xc3\x28 bad lead",
	strings.Repeat("long-", 100) + "\u00e9",
}

func TestAppendStringMatchesStdlib(t *testing.T) {
	for _, s := range trickyStrings {
		want := mustMarshal(t, s)
		got := appendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendString(%q):\n got %s\nwant %s", s, got, want)
		}
	}
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.975, 0.9375, 13.5,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1e21, 9.999999999999999e20, -1e21,
	1e-308, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	1.0 / 3.0, 2.2250738585072014e-308, 123456789.123456789,
	1e20, 1e22, -2.5e-10, 3.14159265358979,
}

func TestAppendFloatMatchesStdlib(t *testing.T) {
	for _, f := range trickyFloats {
		want := mustMarshal(t, f)
		got, err := appendFloat(nil, f)
		if err != nil {
			t.Fatalf("appendFloat(%v): %v", f, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v):\n got %s\nwant %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendFloat(nil, f); err == nil {
			t.Errorf("appendFloat(%v): want error (stdlib refuses non-finite)", f)
		}
	}
}

// randomString draws from a byte/rune alphabet weighted toward escape
// boundaries, including deliberately invalid UTF-8.
func randomString(rng *rand.Rand) string {
	n := rng.Intn(24)
	var b []byte
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			b = append(b, byte(rng.Intn(0x20))) // control byte
		case 1:
			b = append(b, []byte{'"', '\\', '<', '>', '&', '/'}[rng.Intn(6)])
		case 2:
			b = append(b, byte(rng.Intn(256))) // arbitrary — often invalid UTF-8
		case 3:
			b = append(b, string(rune(0x2026+rng.Intn(6)))...) // around U+2028/29
		case 4:
			b = append(b, string(rune(rng.Intn(0x10000)))...) // BMP incl. surrogate-adjacent
		default:
			b = append(b, byte('a'+rng.Intn(26)))
		}
	}
	return string(b)
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return float64(rng.Intn(100)) / 16 // exactly representable
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
	case 2:
		return -rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
	case 3:
		return float64(rng.Int63())
	default:
		return rng.NormFloat64()
	}
}

func randomDetectResponse(rng *rand.Rand) DetectResponse {
	var r DetectResponse
	r.Domain = randomString(rng)
	r.Unicode = randomString(rng)
	r.IDN = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		r.Homograph = &core.HomographMatch{
			Domain: randomString(rng), Unicode: randomString(rng),
			Brand: randomString(rng), SSIM: randomFloat(rng),
		}
	}
	if rng.Intn(2) == 0 {
		r.Semantic = &core.SemanticMatch{
			Domain: randomString(rng), Unicode: randomString(rng),
			Brand: randomString(rng), Keyword: randomString(rng),
		}
	}
	if rng.Intn(2) == 0 {
		m := &core.StatMatch{
			Domain: randomString(rng), Unicode: randomString(rng), Score: randomFloat(rng),
		}
		for i := rng.Intn(4); i > 0; i-- {
			m.Top = append(m.Top, feat.Contribution{
				Feature: randomString(rng), Value: randomFloat(rng), Impact: randomFloat(rng),
			})
		}
		r.Statistical = m
	}
	if rng.Intn(2) == 0 {
		r.Confidence = &core.EnsembleConfidence{
			Homograph: randomFloat(rng), Semantic: randomFloat(rng), Statistical: randomFloat(rng),
		}
	}
	if rng.Intn(2) == 0 {
		r.Suspicion = []string{core.SuspicionNone, core.SuspicionLow, core.SuspicionMedium, core.SuspicionHigh}[rng.Intn(4)]
	}
	r.Flagged = rng.Intn(2) == 0
	r.Cached = rng.Intn(2) == 0
	if rng.Intn(4) == 0 {
		r.Input = randomString(rng)
	}
	if rng.Intn(4) == 0 {
		r.Error = randomString(rng)
	}
	return r
}

func TestRandomizedEncoderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	buf := make([]byte, 0, 4096)
	for i := 0; i < 5000; i++ {
		r := randomDetectResponse(rng)
		want := mustMarshal(t, r)
		var err error
		buf, err = AppendDetectResponse(buf[:0], &r)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("iter %d: codec diverged:\n got %s\nwant %s", i, buf, want)
		}
	}
	for i := 0; i < 500; i++ {
		var b BatchResponse
		b.Count = rng.Intn(100)
		b.Flagged = rng.Intn(100)
		if rng.Intn(8) != 0 { // nil Results sometimes — encodes as null
			b.Results = []DetectResponse{}
			for j := rng.Intn(5); j > 0; j-- {
				b.Results = append(b.Results, randomDetectResponse(rng))
			}
		}
		want := mustMarshal(t, b)
		var err error
		buf, err = AppendBatchResponse(buf[:0], &b)
		if err != nil {
			t.Fatalf("batch iter %d: %v", i, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("batch iter %d: codec diverged:\n got %s\nwant %s", i, buf, want)
		}
	}
}

func TestRequestEncodersMatchStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		dr := DetectRequest{Domain: randomString(rng)}
		if got, want := AppendDetectRequest(nil, &dr), mustMarshal(t, dr); !bytes.Equal(got, want) {
			t.Fatalf("detect request diverged:\n got %s\nwant %s", got, want)
		}
		var br BatchRequest
		if rng.Intn(8) != 0 {
			br.Domains = []string{}
			for j := rng.Intn(5); j > 0; j-- {
				br.Domains = append(br.Domains, randomString(rng))
			}
		}
		if got, want := AppendBatchRequest(nil, &br), mustMarshal(t, br); !bytes.Equal(got, want) {
			t.Fatalf("batch request diverged:\n got %s\nwant %s", got, want)
		}
	}
}

// TestWriteHelpersMatchWriteJSON pins that the codec write path emits
// exactly what api.WriteJSON (json.Encoder) emits — status, headers,
// body, trailing newline.
func TestWriteHelpersMatchWriteJSON(t *testing.T) {
	ens := ensembleResponse()
	batch := BatchResponse{Count: 1, Flagged: 1, Results: []DetectResponse{ens}}

	oldW, newW := httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(oldW, 200, ens)
	WriteDetect(newW, 200, &ens)
	if oldW.Body.String() != newW.Body.String() || oldW.Code != newW.Code ||
		oldW.Header().Get("Content-Type") != newW.Header().Get("Content-Type") {
		t.Errorf("WriteDetect diverged from WriteJSON:\n got %q\nwant %q", newW.Body, oldW.Body)
	}

	oldW, newW = httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(oldW, 200, batch)
	WriteBatch(newW, 200, &batch)
	if oldW.Body.String() != newW.Body.String() {
		t.Errorf("WriteBatch diverged from WriteJSON:\n got %q\nwant %q", newW.Body, oldW.Body)
	}

	// Non-finite fallback: same observable behavior as the stdlib path
	// (headers + status sent, no body — Encode's error is swallowed).
	bad := DetectResponse{Verdict: core.Verdict{
		Domain:    "x",
		Homograph: &core.HomographMatch{SSIM: math.NaN()},
	}}
	oldW, newW = httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(oldW, 200, bad)
	WriteDetect(newW, 200, &bad)
	if oldW.Body.String() != newW.Body.String() || oldW.Code != newW.Code {
		t.Errorf("non-finite fallback diverged:\n got %q/%d\nwant %q/%d",
			newW.Body, newW.Code, oldW.Body, oldW.Code)
	}
}

// --- encoder allocation contract and benchmarks ---
//
// The Stdlib benchmark variants measure the encoding/json path the
// append codec replaced.

// TestAppendEncodersZeroAlloc: the four append encoders write into the
// caller's buffer and nothing else, at batch 64 as well as for singles.
func TestAppendEncodersZeroAlloc(t *testing.T) {
	detResp := ensembleResponse()
	batchResp := benchBatch(64)
	detReq := DetectRequest{Domain: "xn--pple-43d.com"}
	batchReq := BatchRequest{}
	for i := 0; i < 64; i++ {
		batchReq.Domains = append(batchReq.Domains, "xn--pple-43d.com")
	}
	var buf []byte
	for name, encode := range map[string]func(){
		"AppendDetectRequest":  func() { buf = AppendDetectRequest(buf[:0], &detReq) },
		"AppendBatchRequest":   func() { buf = AppendBatchRequest(buf[:0], &batchReq) },
		"AppendDetectResponse": func() { buf, _ = AppendDetectResponse(buf[:0], &detResp) },
		"AppendBatchResponse":  func() { buf, _ = AppendBatchResponse(buf[:0], &batchResp) },
	} {
		encode() // grow the buffer once
		if len(buf) == 0 {
			t.Fatalf("%s encoded nothing", name)
		}
		if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
			t.Errorf("%s allocates %v per call into a reused buffer, want 0", name, allocs)
		}
	}
}

func benchBatch(n int) BatchResponse {
	ens := ensembleResponse()
	b := BatchResponse{Count: n, Flagged: n}
	for i := 0; i < n; i++ {
		b.Results = append(b.Results, ens)
	}
	return b
}

func BenchmarkEncodeDetectResponse(b *testing.B) {
	r := ensembleResponse()
	buf, err := AppendDetectResponse(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendDetectResponse(buf[:0], &r)
	}
}

func BenchmarkEncodeDetectResponseStdlib(b *testing.B) {
	r := ensembleResponse()
	out, _ := json.Marshal(r)
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBatchResponse64(b *testing.B) {
	batch := benchBatch(64)
	buf, err := AppendBatchResponse(nil, &batch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendBatchResponse(buf[:0], &batch)
	}
}

func BenchmarkEncodeBatchResponse64Stdlib(b *testing.B) {
	batch := benchBatch(64)
	out, _ := json.Marshal(batch)
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDetectRequest(b *testing.B) {
	req := DetectRequest{Domain: "xn--pple-43d.com"}
	buf := AppendDetectRequest(nil, &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendDetectRequest(buf[:0], &req)
	}
}

func BenchmarkEncodeBatchRequest64(b *testing.B) {
	req := BatchRequest{}
	for i := 0; i < 64; i++ {
		req.Domains = append(req.Domains, "xn--pple-43d.com")
	}
	buf := AppendBatchRequest(nil, &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatchRequest(buf[:0], &req)
	}
}
