package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idnlab/internal/api"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// saturableServer is testServer with one admission slot and no queue,
// so a test that holds the slot saturates the node.
func saturableServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{TopK: 100})
	s.adm = NewAdmission(1, 0, 5*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDetectGoldenClean pins the exact wire format of a clean-domain
// response (no floats involved, so the bytes are stable).
func TestDetectGoldenClean(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 100})
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"example.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type %q", ct)
	}
	want := `{"domain":"example.com","unicode":"example.com","idn":false,"flagged":false,"cached":false}` + "\n"
	if body != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", body, want)
	}
}

// TestDetectKnownHomograph serves the paper's canonical attack
// (аpple.com, Cyrillic а) and checks the verdict fields plus the
// cached flag on a repeat lookup — including via the Unicode spelling,
// which must normalize to the same cache entry.
func TestDetectKnownHomograph(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000})
	var out struct {
		Domain    string `json:"domain"`
		Unicode   string `json:"unicode"`
		IDN       bool   `json:"idn"`
		Flagged   bool   `json:"flagged"`
		Cached    bool   `json:"cached"`
		Homograph *struct {
			Brand string  `json:"brand"`
			SSIM  float64 `json:"ssim"`
		} `json:"homograph"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if !out.Flagged || !out.IDN || out.Homograph == nil || out.Homograph.Brand != "apple.com" {
		t.Fatalf("verdict: %+v (%s)", out, body)
	}
	if out.Cached {
		t.Fatal("first lookup reported cached")
	}
	// Unicode spelling of the same name must hit the same cache entry.
	resp, body = postJSON(t, ts.URL+"/v1/detect", `{"domain":"аpple.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("unicode spelling status %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached || out.Domain != "xn--pple-43d.com" {
		t.Fatalf("unicode spelling should be cached under ACE key: %s", body)
	}
}

func TestDetectSemantic(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000})
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"apple邮箱.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"semantic"`) || !strings.Contains(body, `"flagged":true`) {
		t.Fatalf("semantic verdict missing: %s", body)
	}
}

// TestDetectBadRequests pins the 400 taxonomy.
func TestDetectBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 100})
	cases := []string{
		`{`,                         // truncated JSON
		``,                          // empty body
		`[]`,                        // wrong shape
		`{"domain":""}`,             // missing value
		`{"nope":"x"}`,              // unknown field
		`{"domain":"a.com"} junk`,   // trailing garbage
		`{"domain":"exa mple.com"}`, // disallowed rune
		`{"domain":"bad..com"}`,     // empty label
	}
	for _, body := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/detect", body)
		if resp.StatusCode != 400 {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Error responses must be JSON.
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{`)
	if resp.StatusCode != 400 || !strings.Contains(body, `"error"`) {
		t.Fatalf("error body: %d %q", resp.StatusCode, body)
	}
}

// TestBatch covers the aligned-results contract and the 413 cap.
func TestBatch(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000})
	resp, body := postJSON(t, ts.URL+"/v1/detect/batch",
		`{"domains":["xn--pple-43d.com","example.com","bad..x","apple邮箱.com"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Count   int `json:"count"`
		Flagged int `json:"flagged"`
		Results []struct {
			Domain  string `json:"domain"`
			Input   string `json:"input"`
			Error   string `json:"error"`
			Flagged bool   `json:"flagged"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Count != 4 || len(out.Results) != 4 {
		t.Fatalf("count=%d results=%d, want 4/4", out.Count, len(out.Results))
	}
	// Results must align index-for-index with the request.
	if out.Results[0].Domain != "xn--pple-43d.com" || !out.Results[0].Flagged {
		t.Fatalf("result[0]: %+v", out.Results[0])
	}
	if out.Results[1].Domain != "example.com" || out.Results[1].Flagged {
		t.Fatalf("result[1]: %+v", out.Results[1])
	}
	if out.Results[2].Error == "" || out.Results[2].Input != "bad..x" {
		t.Fatalf("result[2] should carry the input error: %+v", out.Results[2])
	}
	if !out.Results[3].Flagged {
		t.Fatalf("result[3]: %+v", out.Results[3])
	}
	if out.Flagged != 2 {
		t.Fatalf("flagged=%d, want 2", out.Flagged)
	}

	// Oversized batch: 413, never partial processing.
	domains := make([]string, api.MaxBatch+1)
	for i := range domains {
		domains[i] = fmt.Sprintf("d%d.com", i)
	}
	oversized, err := json.Marshal(map[string][]string{"domains": domains})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/detect/batch", string(oversized))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestLoadShed429 saturates admission (all slots and the queue held by
// the test) and verifies uncached detect requests get 429 +
// Retry-After, then flow again after release — load shedding, not
// collapse.
func TestLoadShed429(t *testing.T) {
	s, ts := saturableServer(t)
	release, err := s.adm.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"cold-shed.com"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// Batches shed the same way.
	resp, _ = postJSON(t, ts.URL+"/v1/detect/batch", `{"domains":["example.com"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	release()
	resp, _ = postJSON(t, ts.URL+"/v1/detect", `{"domain":"example.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
	if st := s.adm.Stats(); st.Shed < 2 {
		t.Fatalf("admission stats did not record sheds: %+v", st)
	}
	// Cache hits bypass admission: re-saturate and re-request the now
	// warm label.
	release2, _ := s.adm.Admit(context.Background())
	defer release2()
	resp, _ = postJSON(t, ts.URL+"/v1/detect", `{"domain":"example.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("warm label under saturation: status %d, want 200", resp.StatusCode)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := testServer(t, Config{TopK: 100})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz: %d %q", resp.StatusCode, body)
	}
}

// TestRunGracefulDrain boots a real listener, cancels the context, and
// verifies Run returns cleanly.
func TestRunGracefulDrain(t *testing.T) {
	s := NewServer(Config{TopK: 100})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not drain within budget")
	}
	if !s.Draining() {
		t.Fatal("server not marked draining after shutdown")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000})
	postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	postJSON(t, ts.URL+"/v1/detect/batch", `{"domains":["example.com"]}`)
	postJSON(t, ts.URL+"/v1/detect", `{`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests.Single != 3 || snap.Requests.Batch != 1 {
		t.Fatalf("request counters: %+v", snap.Requests)
	}
	if snap.Requests.Status2xx != 3 || snap.Requests.Status4xx != 1 {
		t.Fatalf("status counters: %+v", snap.Requests)
	}
	if snap.Cache.Hits == 0 {
		t.Fatalf("cache hits not counted: %+v", snap.Cache)
	}
	if snap.Latency.Count != 4 || snap.Latency.P50Micros <= 0 {
		t.Fatalf("latency: %+v", snap.Latency)
	}
	if snap.BatchEngine.Stage != "serve.batch" || snap.BatchEngine.In != 1 {
		t.Fatalf("batch engine metrics: %+v", snap.BatchEngine)
	}
}

// TestSingleDetectCountsOneLookup: a single detect is one cache lookup.
// N distinct cold singles then the same N warm must read misses == N,
// hits == N, hitRate 0.5 at /metrics (a Get pre-check ahead of Do once
// counted every cold single as two misses).
func TestSingleDetectCountsOneLookup(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 100})
	const n = 7
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/detect", fmt.Sprintf(`{"domain":"single-%d.example"}`, i))
			if resp.StatusCode != 200 || strings.Contains(body, `"cached":true`) != (pass == 1) {
				t.Fatalf("pass %d domain %d: %d %q", pass, i, resp.StatusCode, body)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if c := snap.Cache; c.Misses != n || c.Hits != n || c.HitRate != 0.5 {
		t.Fatalf("cache after %d cold + %d warm singles: misses=%d hits=%d hitRate=%v", n, n, c.Misses, c.Hits, c.HitRate)
	}
}

// TestConcurrentHammer drives a shared server from many goroutines
// mixing cached singles, cold singles, batches and malformed bodies —
// run under -race this is the serving layer's data-race gate.
func TestConcurrentHammer(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000, Workers: 4, CacheSize: 64})
	client := ts.Client()
	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // hot key: exercises cache hits + singleflight
					resp, err := client.Post(ts.URL+"/v1/detect", "application/json",
						strings.NewReader(`{"domain":"xn--pple-43d.com"}`))
					if err == nil {
						resp.Body.Close()
					}
				case 1: // cold keys: exercises eviction under pressure
					resp, err := client.Post(ts.URL+"/v1/detect", "application/json",
						strings.NewReader(fmt.Sprintf(`{"domain":"cold-%d-%d.com"}`, g, i)))
					if err == nil {
						resp.Body.Close()
					}
				case 2: // batch through the pipeline engine
					resp, err := client.Post(ts.URL+"/v1/detect/batch", "application/json",
						strings.NewReader(`{"domains":["example.com","apple邮箱.com"]}`))
					if err == nil {
						resp.Body.Close()
					}
				case 3: // malformed
					resp, err := client.Post(ts.URL+"/v1/detect", "application/json",
						strings.NewReader(`{"broken`))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The server must still be healthy and its counters consistent.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	wantReqs := uint64(goroutines * iters)
	if got := snap.Requests.Single + snap.Requests.Batch; got != wantReqs {
		t.Fatalf("requests = %d, want %d", got, wantReqs)
	}
	if snap.Cache.Size > 64 {
		t.Fatalf("cache exceeded capacity: %+v", snap.Cache)
	}
}
