package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/core"
)

// TestFailoverSingleIsOfferedToOwner: a single the owner refuses is
// answered by the second candidate, and the gateway relays that body
// byte for byte. The test and its one subtest keep their historical
// names; the gateway no longer queues the verdict for the owner, so only
// the passthrough is checked.
func TestFailoverSingleIsOfferedToOwner(t *testing.T) {
	const key = "xn--pple-43d.com"
	answer, err := api.AppendDetectResponse(nil, &api.DetectResponse{Verdict: core.Verdict{Domain: key, Unicode: key}})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("coalesce=0s", func(t *testing.T) {
		fake := newFakeDoer()
		g := NewGateway(GatewayConfig{
			Router: RouterConfig{Client: fake},
		})
		for _, nd := range testNodes(3) {
			g.mem.Join(nd.ID, nd.Addr)
		}
		cands := g.router.Ring().Candidates(key, 0)
		fake.set(cands[0].Addr, refuse())
		fake.set(cands[1].Addr, okResponse(string(answer)))

		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(`{"domain":"`+key+`"}`)))
		if rec.Code != 200 || rec.Body.String() != string(answer) {
			t.Fatalf("detect: %d %q, want the second candidate's body passed through", rec.Code, rec.Body)
		}
	})
}

// TestHeartbeatingWorkerThatFailsRequests: a worker that heartbeats
// normally but answers every detect with 500 is resurrected by each
// heartbeat and killed again by deadFailStreak failed attempts. Clients
// never see it: every request is answered 200 by the next candidate,
// and over N heartbeats the worker sees at most deadFailStreak × (N+1)
// detect attempts however much traffic its keys get.
func TestHeartbeatingWorkerThatFailsRequests(t *testing.T) {
	const (
		heartbeats = 4
		perBeat    = 20
	)
	fake := newFakeDoer()
	g := NewGateway(GatewayConfig{Router: RouterConfig{Client: fake}})
	nodes := testNodes(3)
	for _, nd := range nodes {
		g.mem.Join(nd.ID, nd.Addr)
		fake.set(nd.Addr, okResponse(`{"node":"`+nd.ID+`"}`))
	}
	bad := nodes[0]
	fake.set(bad.Addr, func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 500, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("boom"))}, nil
	})
	var keys []string // names the failing worker owns while it is alive
	for i := 0; len(keys) < perBeat; i++ {
		k := fmt.Sprintf("owned-%d.example", i)
		if o, _ := g.router.Owner(k); o.ID == bad.ID {
			keys = append(keys, k)
		}
	}
	h := g.Handler()
	for beat := 0; beat <= heartbeats; beat++ {
		if beat > 0 {
			g.mem.Join(bad.ID, bad.Addr) // the heartbeat resurrects it
		}
		for _, k := range keys {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(`{"domain":"`+k+`"}`)))
			if rec.Code != 200 || strings.Contains(rec.Body.String(), bad.ID) {
				t.Fatalf("heartbeat %d, %s: %d %q, want 200 from another candidate", beat, k, rec.Code, rec.Body)
			}
		}
	}
	if got, max := fake.callCount(bad.Addr), deadFailStreak*(heartbeats+1); got == 0 || got > max {
		t.Fatalf("the failing worker saw %d detect attempts over %d heartbeats, want 1..%d", got, heartbeats, max)
	}
}
