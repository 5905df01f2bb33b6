package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/core"
)

// TestFailoverSingleIsOfferedToOwner: a single the owner refuses and the
// second candidate answers is queued for the owner. The subtest keeps its
// historical name: the gateway forwards each single on its own, with no
// coalescing window. The /metrics door is the one operators read.
func TestFailoverSingleIsOfferedToOwner(t *testing.T) {
	const key = "xn--pple-43d.com"
	answer, err := api.AppendDetectResponse(nil, &api.DetectResponse{Verdict: core.Verdict{Domain: key, Unicode: key}})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("coalesce=0s", func(t *testing.T) {
		fake := newFakeDoer()
		g := NewGateway(GatewayConfig{
			Router: RouterConfig{Client: fake, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		})
		for _, nd := range testNodes(3) {
			g.mem.Join(nd.ID, nd.Addr)
		}
		cands := g.router.Ring().Candidates(key, 0)
		fake.set(cands[0].Addr, refuse())
		fake.set(cands[1].Addr, okResponse(string(answer)))
		h := g.Handler()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(`{"domain":"`+key+`"}`)))
		if rec.Code != 200 || rec.Body.String() != string(answer) {
			t.Fatalf("detect: %d %q, want the second candidate's body passed through", rec.Code, rec.Body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m struct {
			Gateway struct {
				Forwards uint64 `json:"repair_forwards"`
				Dropped  uint64 `json:"repair_dropped"`
			} `json:"gateway"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.Gateway.Forwards != 1 || m.Gateway.Dropped != 0 {
			t.Fatalf("repair_forwards=%d repair_dropped=%d, want 1 and 0", m.Gateway.Forwards, m.Gateway.Dropped)
		}
		select {
		case it := <-g.repairs.ch:
			if it.addr != cands[0].Addr || it.v.Domain != key {
				t.Fatalf("queued %s → %s, want %s → owner %s", it.v.Domain, it.addr, key, cands[0].Addr)
			}
		default:
			t.Fatal("nothing queued for the owner")
		}
	})
}
