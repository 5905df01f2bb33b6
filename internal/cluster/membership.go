package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// A silent node turns suspect after suspectBeats heartbeat intervals
// and dead after deadBeats. deadFailStreak consecutive proxy failures
// demote a node straight to dead without waiting for those timers:
// connection-refused evidence is stronger and faster than a heartbeat
// gap.
const (
	suspectBeats   = 3
	deadBeats      = 10
	deadFailStreak = 3
)

// MembershipConfig parameterizes the registry. The zero value selects
// defaults suitable for a LAN cluster (1s heartbeats).
type MembershipConfig struct {
	// HeartbeatInterval is the cadence advertised to workers in
	// JoinResponse (default 1s). The sweeper runs at half this interval.
	HeartbeatInterval time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// member is one node's mutable record, guarded by Membership.mu.
type member struct {
	id         string
	addr       string
	state      NodeState
	lastBeat   time.Time
	failStreak int
}

// Membership is the gateway's node registry: workers join (and
// heartbeat by re-joining), the sweeper ages silent nodes through
// suspect to dead, and the router feeds back per-request evidence
// (success resurrects, consecutive failures demote). Every change bumps
// the epoch, which is what invalidates the router's cached ring.
//
// Dead nodes stay in the registry (visible in /clusterz with their
// state) so operators can see what fell out; a dead node that
// heartbeats again is resurrected in place and — because ring placement
// depends only on node IDs — reclaims exactly its old key range.
type Membership struct {
	cfg MembershipConfig

	mu       sync.Mutex
	nodes    map[string]*member
	epoch    uint64
	onRejoin func(id string)
}

// OnRejoin registers a hook invoked (outside the registry lock) each
// time a previously dead node comes back — a heartbeat or request
// success resurrecting it. The gateway uses it to count rejoins; the
// returning worker's own anti-entropy loop does the actual catch-up.
// Set before the registry sees traffic.
func (m *Membership) OnRejoin(fn func(id string)) { m.onRejoin = fn }

// NewMembership builds an empty registry.
func NewMembership(cfg MembershipConfig) *Membership {
	return &Membership{cfg: cfg.withDefaults(), nodes: make(map[string]*member)}
}

// HeartbeatInterval reports the advertised heartbeat cadence.
func (m *Membership) HeartbeatInterval() time.Duration { return m.cfg.HeartbeatInterval }

// Epoch reports the current membership epoch.
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Join registers or heartbeats a node and returns the new epoch. A
// fresh node, an address change, or a state resurrection bumps the
// epoch; a plain heartbeat from a healthy node does not (so the router's
// ring cache stays hot under steady state).
func (m *Membership) Join(id, addr string) uint64 {
	now := m.cfg.Now()
	m.mu.Lock()
	n, ok := m.nodes[id]
	if !ok {
		m.nodes[id] = &member{id: id, addr: addr, state: StateAlive, lastBeat: now}
		m.epoch++
		epoch := m.epoch
		m.mu.Unlock()
		return epoch
	}
	rejoined := n.state == StateDead
	changed := n.addr != addr || n.state != StateAlive
	n.addr = addr
	n.state = StateAlive
	n.lastBeat = now
	n.failStreak = 0
	if changed {
		m.epoch++
	}
	epoch := m.epoch
	hook := m.onRejoin
	m.mu.Unlock()
	if rejoined && hook != nil {
		hook(id)
	}
	return epoch
}

// ObserveSuccess records a successful proxied request to id: evidence
// the node is alive, refreshing its heartbeat and resurrecting it if it
// had been demoted. Under load, traffic itself keeps members fresh —
// heartbeats only matter for idle nodes.
func (m *Membership) ObserveSuccess(id string) {
	now := m.cfg.Now()
	m.mu.Lock()
	n, ok := m.nodes[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	rejoined := n.state == StateDead
	n.lastBeat = now
	n.failStreak = 0
	if n.state != StateAlive {
		n.state = StateAlive
		m.epoch++
	}
	hook := m.onRejoin
	m.mu.Unlock()
	if rejoined && hook != nil {
		hook(id)
	}
}

// ObserveFailure records a failed proxied request to id: the node is
// demoted to suspect immediately and to dead after deadFailStreak
// consecutive failures — much faster than waiting out the heartbeat
// timers, which is what lets a killed worker's key range be reassigned
// while requests are still in flight.
func (m *Membership) ObserveFailure(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok {
		return
	}
	n.failStreak++
	want := StateSuspect
	if n.failStreak >= deadFailStreak {
		want = StateDead
	}
	if n.state != want && n.state != StateDead {
		n.state = want
		m.epoch++
	}
}

// Sweep ages silent nodes: past suspectBeats heartbeat intervals →
// suspect, past deadBeats → dead. It reports whether anything changed
// (and bumps the epoch if so). Sweep never resurrects — only heartbeats
// and successes do.
func (m *Membership) Sweep() bool {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, n := range m.nodes {
		age := now.Sub(n.lastBeat)
		var want NodeState
		switch {
		case age > deadBeats*m.cfg.HeartbeatInterval:
			want = StateDead
		case age > suspectBeats*m.cfg.HeartbeatInterval:
			want = StateSuspect
		default:
			continue
		}
		// Only demote: suspect→dead, alive→suspect/dead.
		if rank(want) > rank(n.state) {
			n.state = want
			changed = true
		}
	}
	if changed {
		m.epoch++
	}
	return changed
}

func rank(s NodeState) int {
	switch s {
	case StateAlive:
		return 0
	case StateSuspect:
		return 1
	default:
		return 2
	}
}

// Run sweeps on a ticker (half the heartbeat interval) until ctx is
// cancelled.
func (m *Membership) Run(ctx context.Context) {
	tick := time.NewTicker(m.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m.Sweep()
		case <-ctx.Done():
			return
		}
	}
}

// Snapshot returns the epoch-stamped view of every known node, sorted
// by ID for deterministic output.
func (m *Membership) Snapshot() ClusterView {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	v := ClusterView{Epoch: m.epoch, Nodes: make([]NodeInfo, 0, len(m.nodes))}
	for _, n := range m.nodes {
		v.Nodes = append(v.Nodes, NodeInfo{
			ID:            n.id,
			Addr:          n.addr,
			State:         n.state,
			LastBeatAgoMs: now.Sub(n.lastBeat).Milliseconds(),
			FailStreak:    n.failStreak,
		})
	}
	sort.Slice(v.Nodes, func(i, j int) bool { return v.Nodes[i].ID < v.Nodes[j].ID })
	return v
}

// Routable returns the epoch and the nodes the ring may route to:
// everything not dead. Suspect nodes stay routable, so a transient blip
// does not reshuffle the whole keyspace; deadFailStreak consecutive
// proxy failures take a node out.
func (m *Membership) Routable() (uint64, []NodeInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes := make([]NodeInfo, 0, len(m.nodes))
	for _, n := range m.nodes {
		if n.state != StateDead {
			nodes = append(nodes, NodeInfo{ID: n.id, Addr: n.addr, State: n.state})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return m.epoch, nodes
}

// AliveCount reports the number of members currently in StateAlive.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, node := range m.nodes {
		if node.state == StateAlive {
			n++
		}
	}
	return n
}
