//go:build smoke

package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/proctest"
	"idnlab/internal/simrand"
	"idnlab/internal/zonegen"
)

// binDir holds the binaries, built once for the whole run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "idnlab-smoke-")
	if err == nil {
		err = proctest.Build(dir, "idnserve", "idngateway", "idnindex", "idnwatch", "idnstat", "idnzonegen")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tool(name string) string { return filepath.Join(binDir, name) }

// start launches a server binary and returns it with the address from
// its "listening on" line. The child is killed when the test ends,
// however it ends.
func start(t *testing.T, name, bin string, args ...string) (*proctest.Proc, string) {
	t.Helper()
	p, err := proctest.Start(name, tool(bin), args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	addr, err := p.Addr()
	if err != nil {
		t.Fatal(err)
	}
	return p, addr
}

// run runs a tool to completion and returns its output; a non-zero exit
// fails the test with the output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := proctest.Run(bin, tool(bin), args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drain SIGTERMs the children in order; each must exit 0 having printed
// "drained cleanly", or the test fails with that child's log.
func drain(t *testing.T, procs ...*proctest.Proc) {
	t.Helper()
	for _, p := range procs {
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitServing waits for the gateway's quorum line and checks the count.
func waitServing(t *testing.T, gw *proctest.Proc, workers int) {
	t.Helper()
	m, err := gw.WaitLine(proctest.Serving)
	if err != nil {
		t.Fatal(err)
	}
	if m[1] != strconv.Itoa(workers) {
		t.Fatalf("gateway announced %q, want %d workers; log:\n%s", m[0], workers, gw.Log())
	}
}

// recovered is N of the worker's "recovered N verdicts" boot line.
func recovered(t *testing.T, w *proctest.Proc) int {
	t.Helper()
	m, err := w.WaitLine(proctest.Recovered)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
	return n
}

func metrics(t *testing.T, addr string, v any) {
	t.Helper()
	if err := proctest.Metrics(addr, v); err != nil {
		t.Fatal(err)
	}
}

var httpClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
}

func post(t *testing.T, addr, path, body string) (int, string) {
	t.Helper()
	resp, err := httpClient.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", path, err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// maxBatch is the servers' default batch cap (idnserve -max-batch).
const maxBatch = 256

// requestSet is the deterministic correctness set every serving drill
// fires (the ten steps of the former load tool's `-smoke` mode), against
// a worker or through a gateway: detection, caching, batch alignment,
// the error taxonomy and the metrics must be the same behind every door.
// It reports every deviation, not only the first.
func requestSet(t *testing.T, addr string) {
	t.Helper()
	has := strings.Contains

	// step 1: liveness.
	if code, body := get(t, addr, "/healthz"); code != 200 || !has(body, "ok") {
		t.Errorf("step 1 healthz: got %d %q, want 200 ok", code, body)
	}
	// step 2: a known homograph (аpple.com) must be flagged.
	if code, body := post(t, addr, "/v1/detect", `{"domain":"xn--pple-43d.com"}`); code != 200 || !has(body, `"flagged":true`) || !has(body, `"homograph"`) {
		t.Errorf("step 2 detect homograph: got %d %q", code, body)
	}
	// step 3: the same label again must be served from cache.
	if code, body := post(t, addr, "/v1/detect", `{"domain":"xn--pple-43d.com"}`); code != 200 || !has(body, `"cached":true`) {
		t.Errorf("step 3 detect cached: got %d %q", code, body)
	}
	// step 4: a Type-1 semantic IDN (apple + 邮箱), in its Unicode spelling.
	if code, body := post(t, addr, "/v1/detect", `{"domain":"apple邮箱.com"}`); code != 200 || !has(body, `"semantic"`) {
		t.Errorf("step 4 detect semantic: got %d %q", code, body)
	}
	// step 5: a clean ASCII name: 200, not flagged.
	if code, body := post(t, addr, "/v1/detect", `{"domain":"example.com"}`); code != 200 || !has(body, `"flagged":false`) {
		t.Errorf("step 5 detect clean: got %d %q", code, body)
	}
	// step 6: a batch of valid and invalid entries: 200, aligned results,
	// a per-item error for the invalid one.
	if code, body := post(t, addr, "/v1/detect/batch", `{"domains":["xn--pple-43d.com","example.com","bad..domain"]}`); code != 200 || !has(body, `"count":3`) || !has(body, `"error"`) {
		t.Errorf("step 6 batch mixed: got %d %q", code, body)
	}
	// step 7: malformed bodies: 400.
	for _, bad := range []string{`{`, `{"domain":""}`, `{"nope":"x"}`, `[]`, ``} {
		if code, _ := post(t, addr, "/v1/detect", bad); code != 400 {
			t.Errorf("step 7 malformed %q: got %d, want 400", bad, code)
		}
	}
	// step 8: an invalid domain: 400.
	if code, _ := post(t, addr, "/v1/detect", `{"domain":"exa mple.com"}`); code != 400 {
		t.Errorf("step 8 invalid domain: got %d, want 400", code)
	}
	// step 9: an oversized batch: 413.
	over := `{"domains":["example.com"` + strings.Repeat(`,"example.com"`, maxBatch) + `]}`
	if code, _ := post(t, addr, "/v1/detect/batch", over); code != 413 {
		t.Errorf("step 9 oversized batch: got %d, want 413", code)
	}
	// step 10: the metrics reflect the traffic above.
	if code, body := get(t, addr, "/metrics"); code != 200 || !has(body, `"hits"`) || !has(body, `"latency"`) {
		t.Errorf("step 10 metrics: got %d %q", code, body)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// corpus is the replay population of the load drills: the synthetic
// universe's IDNs plus a quarter of its non-IDN controls, shuffled so
// zipf rank does not follow generation order, and the labelled attack
// domains (homograph and semantic splices) on their own.
type corpus struct {
	labels  []string
	attacks []string
}

func newCorpus(t *testing.T, seed uint64, scale int) *corpus {
	t.Helper()
	reg := zonegen.Generate(zonegen.Config{Seed: seed, Scale: scale})
	ds, err := core.Assemble(reg)
	if err != nil {
		t.Fatal(err)
	}
	c := &corpus{labels: append([]string(nil), ds.IDNs...)}
	for i, d := range ds.NonIDNs {
		if i%4 == 0 {
			c.labels = append(c.labels, d)
		}
	}
	src := simrand.New(seed ^ 0x1d71_0ad5)
	for i := len(c.labels) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		c.labels[i], c.labels[j] = c.labels[j], c.labels[i]
	}
	for _, l := range reg.Labels() {
		if l.Positive && l.Population != "protective" {
			c.attacks = append(c.attacks, idna.SLDLabel(l.ACE)+"."+l.TLD)
		}
	}
	return c
}

// loadResult counts what a load phase saw. A 429 is the server's
// admission control working and is counted apart; everything else that
// is not a 2xx — 4xx, 5xx, or no response at all — is an error.
type loadResult struct {
	requests, ok, shed, errors int
	firstError                 string
}

// load is the drills' closed-loop client: `workers` connections each
// send single detects for d, drawing zipfian from the corpus with a
// share of uniform draws from the attack domains, and back off briefly
// on a 429. It exists to keep real traffic in flight while a drill
// kills a process; throughput is bench/e2e's business.
func (c *corpus) load(addr string, workers int, d time.Duration, attackShare float64) loadResult {
	var (
		mu    sync.Mutex
		total loadResult
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			src := simrand.New(uint64(id)*7919 + 1)
			zipf := simrand.NewZipf(src, len(c.labels), 1.1)
			var r loadResult
			for time.Now().Before(deadline) {
				domain := c.labels[zipf.Next()]
				if attackShare > 0 && src.Float64() < attackShare {
					domain = c.attacks[src.Intn(len(c.attacks))]
				}
				body, _ := json.Marshal(map[string]string{"domain": domain})
				r.requests++
				resp, err := httpClient.Post("http://"+addr+"/v1/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					r.fail(fmt.Sprintf("%s: %v", domain, err))
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					r.shed++
					time.Sleep(50 * time.Millisecond)
				case resp.StatusCode >= 300:
					r.fail(fmt.Sprintf("%s: status %d", domain, resp.StatusCode))
				default:
					r.ok++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.requests += r.requests
			total.ok += r.ok
			total.shed += r.shed
			total.errors += r.errors
			if total.firstError == "" {
				total.firstError = r.firstError
			}
		}(w)
	}
	wg.Wait()
	return total
}

func (r *loadResult) fail(what string) {
	r.errors++
	if r.firstError == "" {
		r.firstError = what
	}
}

// requireClean fails the test unless the phase made requests and every
// one of them was a 2xx or a 429 (the former "error-rate: 0.00%" grep).
func (r loadResult) requireClean(t *testing.T, phase string) {
	t.Helper()
	t.Logf("%s: %d requests, %d ok, %d shed (429), %d errors", phase, r.requests, r.ok, r.shed, r.errors)
	if r.ok == 0 || r.errors != 0 {
		t.Fatalf("%s: %d ok and %d errors of %d requests, want > 0 and 0; first error: %s", phase, r.ok, r.errors, r.requests, r.firstError)
	}
}
