package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeDoer routes requests to per-host handlers, counting calls.
type fakeDoer struct {
	mu       sync.Mutex
	handlers map[string]func(*http.Request) (*http.Response, error)
	calls    map[string]int
}

func newFakeDoer() *fakeDoer {
	return &fakeDoer{
		handlers: make(map[string]func(*http.Request) (*http.Response, error)),
		calls:    make(map[string]int),
	}
}

func (f *fakeDoer) set(host string, h func(*http.Request) (*http.Response, error)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[host] = h
}

func (f *fakeDoer) callCount(host string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[host]
}

func (f *fakeDoer) Do(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls[req.URL.Host]++
	h := f.handlers[req.URL.Host]
	f.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("fake: no handler for %s", req.URL.Host)
	}
	return h(req)
}

func okResponse(body string) func(*http.Request) (*http.Response, error) {
	return func(*http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: 200,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(body)),
		}, nil
	}
}

func refuse() func(*http.Request) (*http.Response, error) {
	return func(*http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}
}

// routerFixture wires a membership of n nodes to a router over fake.
func routerFixture(t *testing.T, n int, fake *fakeDoer) (*Membership, *Router, []NodeInfo) {
	t.Helper()
	m := NewMembership(MembershipConfig{HeartbeatInterval: time.Second})
	nodes := testNodes(n)
	for _, nd := range nodes {
		m.Join(nd.ID, nd.Addr)
		fake.set(nd.Addr, okResponse(`{"node":"`+nd.ID+`"}`))
	}
	return m, NewRouter(m, RouterConfig{Client: fake}), nodes
}

func TestRouterRoutesToOwner(t *testing.T) {
	fake := newFakeDoer()
	_, r, _ := routerFixture(t, 3, fake)
	key := "xn--pple-43d.com"
	owner, ok := r.Owner(key)
	if !ok {
		t.Fatal("no owner")
	}
	rep, err := r.Do(context.Background(), key, http.MethodPost, "/v1/detect", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeID != owner.ID || rep.Attempts != 1 {
		t.Fatalf("rep = %+v, want owner %s in 1 attempt", rep, owner.ID)
	}
	if fake.callCount(owner.Addr) != 1 {
		t.Fatalf("owner got %d calls, want 1", fake.callCount(owner.Addr))
	}
}

func TestRouterRetriesToNextCandidate(t *testing.T) {
	fake := newFakeDoer()
	m, r, _ := routerFixture(t, 3, fake)
	key := "xn--pple-43d.com"
	cands := r.Ring().Candidates(key, 0)
	fake.set(cands[0].Addr, refuse())

	rep, err := r.Do(context.Background(), key, http.MethodPost, "/v1/detect", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeID != cands[1].ID {
		t.Fatalf("answered by %s, want second candidate %s", rep.NodeID, cands[1].ID)
	}
	if rep.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", rep.Attempts)
	}
	// The failure fed back into membership: owner is now suspect.
	if s := stateOf(t, m, cands[0].ID); s != StateSuspect {
		t.Fatalf("owner state = %s, want suspect after proxy failure", s)
	}
	if st := r.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

func TestRouter5xxIsFailure429PassesThrough(t *testing.T) {
	fake := newFakeDoer()
	_, r, _ := routerFixture(t, 2, fake)
	key := "example.com"
	cands := r.Ring().Candidates(key, 0)

	// 500 advances to the next candidate.
	fake.set(cands[0].Addr, func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 500, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("boom"))}, nil
	})
	rep, err := r.Do(context.Background(), key, http.MethodPost, "/v1/detect", nil)
	if err != nil || rep.NodeID != cands[1].ID {
		t.Fatalf("5xx not retried: rep=%+v err=%v", rep, err)
	}

	// 429 is an answer: passes through with Retry-After, no retry.
	fake.set(cands[0].Addr, func(*http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Retry-After", "1")
		return &http.Response{StatusCode: 429, Header: h, Body: io.NopCloser(strings.NewReader(`{"error":"saturated"}`))}, nil
	})
	before := fake.callCount(cands[1].Addr)
	rep, err = r.Do(context.Background(), key, http.MethodPost, "/v1/detect", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != 429 || rep.RetryAfter != "1" || rep.NodeID != cands[0].ID {
		t.Fatalf("429 passthrough: rep=%+v", rep)
	}
	if fake.callCount(cands[1].Addr) != before {
		t.Fatal("429 leaked a retry to the next candidate")
	}
}

// TestRouterSkipsDeadNodeWithoutAttempt: membership is the router's
// only failure detector. deadFailStreak failed attempts take the owner
// out of the ring, after which its keys go to the next candidate in one
// attempt and the dead node is never dialled again.
func TestRouterSkipsDeadNodeWithoutAttempt(t *testing.T) {
	fake := newFakeDoer()
	m, r, _ := routerFixture(t, 3, fake)
	key := "example.com"
	cands := r.Ring().Candidates(key, 0)
	fake.set(cands[0].Addr, refuse())

	// deadFailStreak requests fail over the owner once each...
	for i := 0; i < deadFailStreak; i++ {
		if _, err := r.Do(context.Background(), key, http.MethodPost, "/v1/detect", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := fake.callCount(cands[0].Addr); got != deadFailStreak {
		t.Fatalf("owner calls = %d, want %d", got, deadFailStreak)
	}
	if s := stateOf(t, m, cands[0].ID); s != StateDead {
		t.Fatalf("owner state = %s, want dead after %d failures", s, deadFailStreak)
	}
	// ...after which the owner is out of the ring: no dial, one attempt.
	for i := 0; i < 5; i++ {
		rep, err := r.Do(context.Background(), key, http.MethodPost, "/v1/detect", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.NodeID != cands[1].ID || rep.Attempts != 1 {
			t.Fatalf("rep = %+v, want %s in 1 attempt", rep, cands[1].ID)
		}
	}
	if got := fake.callCount(cands[0].Addr); got != deadFailStreak {
		t.Fatalf("the dead owner was dialled %d more times", got-deadFailStreak)
	}
}

func TestRouterAllCandidatesDown(t *testing.T) {
	fake := newFakeDoer()
	_, r, nodes := routerFixture(t, 3, fake)
	for _, nd := range nodes {
		fake.set(nd.Addr, refuse())
	}
	_, err := r.Do(context.Background(), "example.com", http.MethodPost, "/v1/detect", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestRouterEmptyRing(t *testing.T) {
	m := NewMembership(MembershipConfig{})
	r := NewRouter(m, RouterConfig{Client: newFakeDoer()})
	if _, err := r.Do(context.Background(), "x.com", http.MethodGet, "/", nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestRouterRingCacheFollowsEpoch(t *testing.T) {
	fake := newFakeDoer()
	m, r, _ := routerFixture(t, 2, fake)
	if got := r.Ring().Len(); got != 2 {
		t.Fatalf("ring len = %d, want 2", got)
	}
	// Same epoch: same compiled ring instance (cache hit).
	if r.Ring() != r.Ring() {
		t.Fatal("ring cache rebuilt without an epoch change")
	}
	m.Join("node-09", "127.0.0.1:9009")
	if got := r.Ring().Len(); got != 3 {
		t.Fatalf("ring len after join = %d, want 3", got)
	}
	// Fail streak kills node-09: ring shrinks again.
	for i := 0; i < 3; i++ {
		m.ObserveFailure("node-09")
	}
	if got := r.Ring().Len(); got != 2 {
		t.Fatalf("ring len after death = %d, want 2", got)
	}
}

func TestRouterBroadcast(t *testing.T) {
	fake := newFakeDoer()
	_, r, nodes := routerFixture(t, 3, fake)
	fake.set(nodes[2].Addr, refuse())
	out := r.Broadcast(context.Background(), "/metrics")
	if len(out) != 3 {
		t.Fatalf("broadcast returned %d replies, want 3", len(out))
	}
	if out[nodes[0].ID].Status != 200 || out[nodes[1].ID].Status != 200 {
		t.Fatalf("healthy nodes: %+v", out)
	}
	if out[nodes[2].ID].Status != 0 {
		t.Fatalf("failed node should have zero Status: %+v", out[nodes[2].ID])
	}
}
