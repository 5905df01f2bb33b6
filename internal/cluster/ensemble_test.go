// Ensemble verdicts through the distribution tier: a gateway fronting
// stat-enabled workers must pass the extended wire format — statistical
// match, per-detector confidence, suspicion level — through single
// routing and batch scatter/gather without loss. The byte-level
// round-trip contract lives in internal/api's golden tests; this is the
// live proof over real workers.
package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/feat"
	"idnlab/internal/serve"
	"idnlab/internal/zonegen"
)

// statModel is the statistical model every stat worker here loads,
// trained once per test binary.
var statModel = sync.OnceValues(func() (*feat.Model, error) {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 50})
	model, _, err := feat.Train(feat.FromLabeled(reg.Labels()), feat.TrainConfig{Seed: 2018})
	return model, err
})

func TestGatewayEnsembleScatterGather(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	model, err := statModel()
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	// Boot the gateway empty, then join stat-enabled workers: the stat
	// field must be set before addWorker constructs the serve.Config.
	tc := startCluster(t, 0, 1)
	defer tc.shutdown(nil)
	tc.stat = model
	tc.addWorker("s0")
	tc.addWorker("s1")
	waitFor(t, 3*time.Second, "stat workers alive", func() bool {
		return tc.gw.Membership().AliveCount() == 2
	})

	// Single detect through ring routing: the canonical homograph must
	// arrive with the full ensemble block intact.
	code, body := tc.post("/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	if code != http.StatusOK {
		t.Fatalf("detect: status %d body %s", code, body)
	}
	var single api.DetectResponse
	if err := json.Unmarshal([]byte(body), &single); err != nil {
		t.Fatalf("decode single: %v", err)
	}
	if !single.Flagged || single.Suspicion != "high" || single.Confidence == nil ||
		single.Confidence.Homograph <= 0 {
		t.Errorf("ensemble fields lost through gateway routing: %s", body)
	}

	// Batch scatter/gather: enough distinct domains to split across
	// both ring owners, reassembled index-aligned with ensemble fields.
	domains := []string{"xn--pple-43d.com", "example.com", "xn--80ak6aa92e.com", "cloudhub.net"}
	req, _ := json.Marshal(api.BatchRequest{Domains: domains})
	code, body = tc.post("/v1/detect/batch", string(req))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	if br.Count != len(domains) || len(br.Results) != len(domains) {
		t.Fatalf("batch shape: count=%d results=%d want %d", br.Count, len(br.Results), len(domains))
	}
	for i, r := range br.Results {
		if r.Domain != domains[i] {
			t.Errorf("result %d misaligned: got %q want %q", i, r.Domain, domains[i])
		}
		// Every worker in this cluster has the model, so every verdict
		// must carry a confidence block and a suspicion level.
		if r.Confidence == nil || r.Suspicion == "" {
			t.Errorf("result %d (%s) lost ensemble fields: %+v", i, domains[i], r.Verdict)
		}
	}
	if got := br.Results[0]; !got.Flagged || got.Suspicion != "high" {
		t.Errorf("homograph verdict degraded through scatter/gather: %+v", got.Verdict)
	}
	if got := br.Results[1]; got.Flagged || got.Suspicion != "none" {
		t.Errorf("clean ASCII verdict degraded: %+v", got.Verdict)
	}

	// The reassembled bytes themselves must contain the ensemble keys —
	// guards against a lossy intermediate struct in the gather path.
	for _, key := range []string{`"confidence"`, `"suspicion"`} {
		if !strings.Contains(body, key) {
			t.Errorf("reassembled batch body missing %s: %s", key, body)
		}
	}

	// The same batch again is cache-hot on the owners; verdicts must be
	// stable (the ensemble fields are cached with the verdict, not
	// recomputed into something else).
	code, body2 := tc.post("/v1/detect/batch", string(req))
	if code != http.StatusOK {
		t.Fatalf("batch rerun: status %d", code)
	}
	var br2 api.BatchResponse
	if err := json.Unmarshal([]byte(body2), &br2); err != nil {
		t.Fatalf("decode rerun: %v", err)
	}
	for i := range br.Results {
		a, _ := json.Marshal(br.Results[i].Verdict)
		b, _ := json.Marshal(br2.Results[i].Verdict)
		if string(a) != string(b) {
			t.Errorf("verdict %d unstable across cache hit:\n first %s\nsecond %s", i, a, b)
		}
	}
}

// TestGatewayBatchBytesMatchOneServer: a batch through a two-worker
// gateway and the same batch sent to one standalone server with the
// same config, both cold, answer with identical bytes. The batch spans
// both owners, has names the gateway answers at the edge first, in the
// middle and last, and carries flagged homographs.
func TestGatewayBatchBytesMatchOneServer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	model, err := statModel()
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	tc := startCluster(t, 0, 1)
	defer tc.shutdown(nil)
	tc.stat = model
	tc.addWorker("s0")
	tc.addWorker("s1")
	waitFor(t, 3*time.Second, "stat workers alive", func() bool {
		return tc.gw.Membership().AliveCount() == 2
	})

	domains := []string{
		"bad..domain",
		"xn--pple-43d.com", "example.com", "xn--80ak6aa92e.com", "cloudhub.net",
		"",
		"paypal.com", "xn--ggle-55da.com", "münchen.de", "a<b>&.example",
		"-leading-hyphen.com",
	}
	req, _ := json.Marshal(api.BatchRequest{Domains: domains})
	code, got := tc.post("/v1/detect/batch", string(req))
	if code != http.StatusOK {
		t.Fatalf("gateway batch: status %d body %s", code, got)
	}

	srv := serve.NewServer(serve.Config{NodeID: "solo", TopK: 100, Workers: 2, Stat: model})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", strings.NewReader(string(req))))
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone batch: status %d body %s", rec.Code, rec.Body)
	}
	if want := rec.Body.String(); got != want {
		t.Fatalf("gateway batch bytes differ from one server's:\n got %s\nwant %s", got, want)
	}

	var br api.BatchResponse
	if err := json.Unmarshal([]byte(got), &br); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, len(domains) - 1} {
		if br.Results[i].Error == "" {
			t.Errorf("item %d (%q) is not an edge error: %+v", i, domains[i], br.Results[i])
		}
	}
	if br.Flagged == 0 || !br.Results[1].Flagged {
		t.Errorf("no flagged homograph in the batch: %s", got)
	}
	_, body := tc.get("/metrics")
	var m struct {
		Gateway struct {
			SubBatches int `json:"subBatches"`
		} `json:"gateway"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil || m.Gateway.SubBatches != 2 {
		t.Errorf("batch went to %d owners, want both (err %v)", m.Gateway.SubBatches, err)
	}
}
