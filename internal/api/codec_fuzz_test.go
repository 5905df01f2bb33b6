package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// FuzzCodecRoundTrip drives the byte-identity contract from fuzzer-
// chosen field values: every DetectResponse/BatchResponse built from
// the inputs must (1) encode via the append codec to exactly
// json.Marshal's bytes, (2) decode with json.Unmarshal and (3) survive
// a full encode→decode→encode round trip losslessly. Non-finite floats
// are skipped: json.Marshal itself refuses them (the codec's
// ErrNonFinite path is pinned by TestWriteHelpersMatchWriteJSON).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("xn--pple-43d.com", "аpple.com", 0.975, 13.5, "high", true, int64(3), "")
	f.Add("", "", 0.0, 0.0, "", false, int64(0), "boom")
	f.Add("a\"b\\c<d>&\x01", "line\u2028sep \xff", 1e-7, -1e21, "none", true, int64(-1), "\x00")
	f.Add("😀", "\xed\xa0\x80", math.SmallestNonzeroFloat64, 1e20, "low", false, int64(64), "é")
	f.Fuzz(func(t *testing.T, domain, unicode string, ssim, impact float64, susp string, flagged bool, count int64, errStr string) {
		if !finite(ssim) || !finite(impact) {
			t.Skip()
		}
		resp := DetectResponse{
			Verdict: core.Verdict{
				Domain:  domain,
				Unicode: unicode,
				IDN:     flagged,
				Homograph: &core.HomographMatch{
					Domain: domain, Unicode: unicode, Brand: domain, SSIM: ssim,
				},
				Semantic: &core.SemanticMatch{
					Domain: domain, Unicode: unicode, Brand: unicode, Keyword: errStr,
				},
				Statistical: &core.StatMatch{
					Domain: domain, Unicode: unicode, Score: impact,
					Top: []feat.Contribution{{Feature: susp, Value: ssim, Impact: impact}},
				},
				Confidence: &core.EnsembleConfidence{Homograph: ssim, Semantic: impact, Statistical: ssim},
				Suspicion:  susp,
			},
			Flagged: flagged,
			Cached:  !flagged,
			Input:   unicode,
			Error:   errStr,
		}
		if count%3 == 0 { // exercise the sparse shape too
			resp = DetectResponse{Verdict: core.Verdict{Domain: domain}, Input: unicode, Error: errStr}
		}
		batch := BatchResponse{Count: int(count % 1000), Flagged: int(count % 7), Results: []DetectResponse{resp}}
		if count%5 == 0 {
			batch.Results = nil
		}

		checkDetect(t, &resp)
		checkBatch(t, &batch)
	})
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func checkDetect(t *testing.T, resp *DetectResponse) {
	t.Helper()
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendDetectResponse(nil, resp)
	if err != nil {
		t.Fatalf("codec errored where stdlib succeeded: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encode diverged:\n got %s\nwant %s", got, want)
	}
	var back DetectResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("stdlib rejects codec output %s: %v", got, err)
	}
	// Full round trip: re-encoding the decoded value must match
	// json.Marshal of it. (Not always the original bytes: invalid UTF-8
	// coerces to U+FFFD on decode.)
	again, err := AppendDetectResponse(nil, &back)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(back); !bytes.Equal(again, want) {
		t.Fatalf("round trip diverged:\n got %s\nwant %s", again, want)
	}
}

func checkBatch(t *testing.T, batch *BatchResponse) {
	t.Helper()
	want, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendBatchResponse(nil, batch)
	if err != nil {
		t.Fatalf("codec errored where stdlib succeeded: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch encode diverged:\n got %s\nwant %s", got, want)
	}
	var back BatchResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("stdlib rejects codec output %s: %v", got, err)
	}
	again, err := AppendBatchResponse(nil, &back)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(back); !bytes.Equal(again, want) {
		t.Fatalf("batch round trip diverged:\n got %s\nwant %s", again, want)
	}
}
