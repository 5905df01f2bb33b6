package cluster_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

var updateKeys = flag.Bool("update", false, "rewrite the /metrics and /clusterz key-set golden")

// TestMetricsKeySetGolden pins the JSON key sets of /metrics and
// /clusterz on the gateway and on a worker, so a PR that adds, renames
// or deletes a key shows it as a diff of testdata/metrics_keys.golden.
// Every object key is flattened to a dotted path (array elements as
// "[]"), and keys that are node ids become "*". The cluster is a gateway
// and two workers: w0 with a durable store and a running replica, w1
// memory-only. Regenerate deliberately with
// `go test ./internal/cluster -run KeySetGolden -update`.
func TestMetricsKeySetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	before := runtime.NumGoroutine()
	tc := startCluster(t, 0, 2)
	tc.storeRoot = t.TempDir()
	tc.addWorker("w0")
	tc.storeRoot = ""
	tc.addWorker("w1")
	waitFor(t, 3*time.Second, "both workers alive", func() bool {
		return tc.gw.Membership().AliveCount() == 2
	})
	defer assertNoLeakedGoroutines(t, before)
	defer tc.shutdown(nil)

	// Traffic through both doors, so maps filled per node exist.
	for i := 0; i < 8; i++ {
		if code, body := tc.post("/v1/detect", fmt.Sprintf(`{"domain":"keys-%d.example"}`, i)); code != 200 {
			t.Fatalf("detect: %d %q", code, body)
		}
	}
	if code, body := tc.post("/v1/detect/batch", `{"domains":["xn--pple-43d.com","example.com","bad..name"]}`); code != 200 {
		t.Fatalf("batch: %d %q", code, body)
	}

	ids := map[string]bool{"w0": true, "w1": true}
	var lines []string
	add := func(door string, body []byte) {
		t.Helper()
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		for _, k := range keyPaths(v, "", ids) {
			lines = append(lines, door+" "+k)
		}
	}
	for _, path := range []string{"/metrics", "/clusterz"} {
		code, body := tc.get(path)
		if code != 200 {
			t.Fatalf("gateway %s: %d", path, code)
		}
		add("gateway"+path, []byte(body))
		for _, w := range tc.workers {
			resp, err := tc.client.Get(w.ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			var raw json.RawMessage
			err = json.NewDecoder(resp.Body).Decode(&raw)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("worker %s %s: %v", w.id, path, err)
			}
			add("worker"+path, raw)
		}
	}
	slices.Sort(lines)
	got := strings.Join(slices.Compact(lines), "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_keys.golden")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	have := make(map[string]bool)
	for _, l := range strings.Split(got, "\n") {
		have[l] = true
	}
	wanted := make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		wanted[l] = true
		if !have[l] {
			t.Errorf("key removed: %s", l)
		}
	}
	for l := range have {
		if !wanted[l] {
			t.Errorf("key added: %s", l)
		}
	}
}

// keyPaths flattens every object key under v to a dotted path from
// prefix. Array elements share the path segment "[]"; a key that is a
// node id is written "*".
func keyPaths(v any, prefix string, ids map[string]bool) []string {
	var out []string
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if ids[k] {
				k = "*"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out = append(out, p)
			out = append(out, keyPaths(child, p, ids)...)
		}
	case []any:
		for _, child := range v {
			out = append(out, keyPaths(child, prefix+"[]", ids)...)
		}
	}
	return out
}
