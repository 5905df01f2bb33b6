package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"idnlab/internal/cluster"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

// TestReadyzLifecycle: ready after warm-up, unready while draining —
// and distinct from /healthz, which only flips on drain.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{NodeID: "test-node", TopK: 100})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitWarm(ctx); err != nil {
		t.Fatalf("warm-up never completed: %v", err)
	}
	code, body := getBody(t, ts.URL+"/readyz")
	if code != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("warm readyz: %d %q", code, body)
	}
	// Identity rides in every health body.
	for _, want := range []string{`"node":"test-node"`, `"version"`, `"warm":true`} {
		if !strings.Contains(body, want) {
			t.Fatalf("readyz body missing %s: %q", want, body)
		}
	}

	s.draining.Store(true)
	if code, body := getBody(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, `"unready"`) {
		t.Fatalf("draining readyz: %d %q", code, body)
	}
}

// TestReadyzSaturation: a node whose admission controller has zero
// headroom reports unready — it should be pulled out of rotation before
// it starts shedding.
func TestReadyzSaturation(t *testing.T) {
	s, ts := saturableServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitWarm(ctx); err != nil {
		t.Fatal(err)
	}
	// Occupy the only execution slot.
	release, err := s.adm.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := getBody(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, `"admissionSaturated":true`) {
		t.Fatalf("saturated readyz: %d %q", code, body)
	}
	release()
	if code, _ := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("released readyz: %d, want 200", code)
	}
}

// TestClusterzStandalone: a worker with no peer attached reports
// standalone mode rather than erroring.
func TestClusterzStandalone(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 100})
	if code, body := getBody(t, ts.URL+"/clusterz"); code != 200 || !strings.Contains(body, `"standalone"`) {
		t.Fatalf("clusterz: %d %q", code, body)
	}
}

// TestHealthBodiesCarryIdentity pins node + version presence across the
// three health surfaces (operators and the cluster drill read these).
func TestHealthBodiesCarryIdentity(t *testing.T) {
	_, ts := testServer(t, Config{NodeID: "idn-w1", TopK: 100})
	for _, path := range []string{"/healthz", "/metrics"} {
		_, body := getBody(t, ts.URL+path)
		if !strings.Contains(body, `"idn-w1"`) || !strings.Contains(body, `"version"`) {
			t.Fatalf("%s missing identity: %q", path, body)
		}
	}
}

// TestBodiesNameTheAttachedPeer: a worker given no NodeID registers
// under its Peer's ID (idnserve -join without -node uses the advertised
// address), so /healthz, /readyz and /metrics must name that ID too —
// the gateway files each worker's /metrics body under it.
func TestBodiesNameTheAttachedPeer(t *testing.T) {
	s, ts := testServer(t, Config{TopK: 100})
	const id = "127.0.0.1:9"
	s.AttachPeer(cluster.NewPeer("127.0.0.1:1", id, id))
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if _, body := getBody(t, ts.URL+path); !strings.Contains(body, `"node":"`+id+`"`) {
			t.Errorf("%s does not name the peer %s: %s", path, id, body)
		}
	}
}
