package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Peer is a worker's lightweight cluster membership client: it
// registers the worker with a gateway via POST /v1/join and keeps
// re-joining on the gateway-advertised heartbeat cadence. Each join
// response carries an epoch-stamped membership view, which the peer
// stores and the worker surfaces at /clusterz — so any worker can
// answer "what does the cluster look like from here" without the
// gateway being asked.
//
// The gateway drives the cadence (JoinResponse.HeartbeatMs): retuning
// one gateway flag retunes every worker's heartbeat on its next beat.
type Peer struct {
	gateway   string // host:port
	nodeID    string
	advertise string // host:port the gateway should route to
	ring      ringCache

	mu       sync.Mutex
	view     ClusterView
	joined   bool
	interval time.Duration
	lastBeat time.Time
	lastErr  error
}

// NewPeer builds a membership client. gateway accepts "host:port" or an
// http URL; advertise is this worker's reachable host:port.
func NewPeer(gateway, nodeID, advertise string) *Peer {
	return &Peer{
		gateway:   strings.TrimRight(strings.TrimPrefix(gateway, "http://"), "/"),
		nodeID:    nodeID,
		advertise: advertise,
		interval:  time.Second, // until the gateway advertises its own
	}
}

// NodeID reports the identity the peer registers under.
func (p *Peer) NodeID() string { return p.nodeID }

// join performs one registration/heartbeat exchange.
func (p *Peer) join(ctx context.Context) error {
	body, err := json.Marshal(JoinRequest{ID: p.nodeID, Addr: p.advertise})
	if err != nil {
		return err
	}
	rep, err := callWithin(ctx, 2*time.Second, http.MethodPost, p.gateway, "/v1/join", body)
	if err != nil {
		return err
	}
	defer rep.Release()
	if rep.Status != http.StatusOK {
		return fmt.Errorf("join: gateway status %d", rep.Status)
	}
	var jr JoinResponse
	if err := json.Unmarshal(rep.Body, &jr); err != nil {
		return fmt.Errorf("join: bad response: %v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Epoch-stamped pull: never replace a newer view with an older one
	// (join responses can race when the interval is short).
	if !p.joined || jr.View.Epoch >= p.view.Epoch {
		p.view = jr.View
	}
	p.joined = true
	p.lastBeat = time.Now()
	p.lastErr = nil
	if jr.HeartbeatMs > 0 {
		p.interval = time.Duration(jr.HeartbeatMs) * time.Millisecond
	}
	return nil
}

// Run joins immediately and then heartbeats until ctx is cancelled.
// Failed beats retry at the same cadence (the gateway's sweeper will
// demote us if we stay silent; there is nothing smarter to do than keep
// trying).
func (p *Peer) Run(ctx context.Context) {
	for {
		if err := p.join(ctx); err != nil && ctx.Err() == nil {
			p.mu.Lock()
			p.lastErr = err
			p.mu.Unlock()
		}
		p.mu.Lock()
		d := p.interval
		p.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
}

// PeerStatus is the worker-side /clusterz body.
type PeerStatus struct {
	Mode          string      `json:"mode"`
	Gateway       string      `json:"gateway"`
	NodeID        string      `json:"nodeId"`
	Joined        bool        `json:"joined"`
	LastBeatAgoMs int64       `json:"lastBeatAgoMs"`
	LastError     string      `json:"lastError,omitempty"`
	View          ClusterView `json:"view"`
}

// Status snapshots the peer's state.
func (p *Peer) Status() PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PeerStatus{
		Mode:    "peer",
		Gateway: "http://" + p.gateway,
		NodeID:  p.nodeID,
		Joined:  p.joined,
		View:    p.view,
	}
	if !p.lastBeat.IsZero() {
		st.LastBeatAgoMs = time.Since(p.lastBeat).Milliseconds()
	}
	if p.lastErr != nil {
		st.LastError = p.lastErr.Error()
	}
	return st
}

// Ring returns the rendezvous ring over the peer's current membership
// view (non-dead nodes) — the same hash the gateway routes with, so
// placement agrees across the tier without coordination. Cached by view
// epoch; nil until the first join brings a non-empty view.
func (p *Peer) Ring() *Ring {
	p.mu.Lock()
	view := p.view
	p.mu.Unlock()
	if ring := p.ring.load(view.Epoch); ring != nil {
		return ring
	}
	nodes := make([]NodeInfo, 0, len(view.Nodes))
	for _, n := range view.Nodes {
		if n.State != StateDead {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	return p.ring.store(view.Epoch, NewRing(nodes))
}

// others returns key's R=2 candidates other than this node. ok is false
// while there is no view yet or nobody else in the ring.
func (p *Peer) others(key string) (others []NodeInfo, ok bool) {
	ring := p.Ring()
	if ring == nil || ring.Len() < 2 {
		return nil, false
	}
	cands := ring.Candidates(key, 2)
	others = cands[:0]
	for _, c := range cands {
		if c.ID != p.nodeID {
			others = append(others, c)
		}
	}
	return others, true
}
