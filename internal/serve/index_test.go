package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
)

// TestServeWithIndex pins the candidate-index wiring end to end: a server
// built with Config.Index must flag a known homograph (through the
// index-backed detector), consult the index for non-ASCII traffic, and
// surface the index's identity and counters at /metrics.
func TestServeWithIndex(t *testing.T) {
	ix, err := candidx.Build(brands.TopK(200), candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Index: ix})

	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var verdict struct {
		Flagged bool `json:"flagged"`
	}
	if err := json.Unmarshal([]byte(body), &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Flagged {
		t.Fatalf("indexed server did not flag the canary homograph: %s", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != 200 {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(readAll(t, mresp)), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Index.Loaded {
		t.Fatal("metrics report no index on an indexed server")
	}
	if snap.Index.Brands != 200 || snap.Index.Format != "IDNCIDX1" {
		t.Fatalf("index identity wrong in metrics: %+v", snap.Index)
	}
	if snap.Index.Lookups == 0 {
		t.Fatal("index lookups counter never moved: detector is not routing through the index")
	}
	if snap.Index.Hits == 0 || snap.Index.HitRate <= 0 {
		t.Fatalf("canary homograph produced no index hit: %+v", snap.Index)
	}
}

// TestServeWithoutIndexMetrics: a server given no index probes the
// process-wide default index for its TopK, and /metrics reports that
// index once an IDN has been classified.
func TestServeWithoutIndexMetrics(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 50})
	if resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(readAll(t, mresp)), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Index.Loaded || snap.Index.Lookups == 0 || snap.Index.Brands != 50 || snap.Index.Format != "IDNCIDX1" {
		t.Fatalf("metrics do not report the default index the server probes: %+v", snap.Index)
	}
}
