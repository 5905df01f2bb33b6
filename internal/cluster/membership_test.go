package cluster

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic sweeps.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestMembership(clk *fakeClock) *Membership {
	return NewMembership(MembershipConfig{
		HeartbeatInterval: time.Second,
		Now:               clk.now,
	})
}

func stateOf(t *testing.T, m *Membership, id string) NodeState {
	t.Helper()
	for _, n := range m.Snapshot().Nodes {
		if n.ID == id {
			return n.State
		}
	}
	t.Fatalf("node %s not in snapshot", id)
	return ""
}

func TestMembershipJoinEpochSemantics(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)

	e1 := m.Join("w1", "127.0.0.1:8181")
	if e1 != 1 {
		t.Fatalf("first join epoch = %d, want 1", e1)
	}
	// Plain heartbeat: no epoch bump — the router's ring cache stays hot.
	if e := m.Join("w1", "127.0.0.1:8181"); e != e1 {
		t.Fatalf("heartbeat bumped epoch %d -> %d", e1, e)
	}
	// Address change: bump.
	if e := m.Join("w1", "127.0.0.1:8182"); e != e1+1 {
		t.Fatalf("addr change epoch = %d, want %d", e, e1+1)
	}
	// Second node: bump.
	if e := m.Join("w2", "127.0.0.1:8183"); e != e1+2 {
		t.Fatalf("new node epoch = %d, want %d", e, e1+2)
	}
}

func TestMembershipSweepAgesThroughSuspectToDead(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)
	m.Join("w1", "127.0.0.1:8181")

	// Within 3 heartbeat intervals: still alive, sweep is a no-op.
	clk.advance(2 * time.Second)
	if m.Sweep() {
		t.Fatal("sweep changed state within 3 heartbeat intervals")
	}
	if s := stateOf(t, m, "w1"); s != StateAlive {
		t.Fatalf("state = %s, want alive", s)
	}

	// Past 3 heartbeat intervals: suspect.
	clk.advance(2 * time.Second) // 4s silent
	if !m.Sweep() {
		t.Fatal("sweep did not demote past 3 heartbeat intervals")
	}
	if s := stateOf(t, m, "w1"); s != StateSuspect {
		t.Fatalf("state = %s, want suspect", s)
	}
	// Suspect nodes remain routable; only death leaves the ring.
	if _, nodes := m.Routable(); len(nodes) != 1 {
		t.Fatalf("suspect node dropped from routable set: %v", nodes)
	}

	// Past 10 heartbeat intervals: dead, and out of the routable set.
	clk.advance(7 * time.Second) // 11s silent
	if !m.Sweep() {
		t.Fatal("sweep did not demote past 10 heartbeat intervals")
	}
	if s := stateOf(t, m, "w1"); s != StateDead {
		t.Fatalf("state = %s, want dead", s)
	}
	if _, nodes := m.Routable(); len(nodes) != 0 {
		t.Fatalf("dead node still routable: %v", nodes)
	}
	// Dead nodes stay visible in the snapshot for operators.
	if len(m.Snapshot().Nodes) != 1 {
		t.Fatal("dead node vanished from snapshot")
	}
}

func TestMembershipHeartbeatResurrects(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)
	m.Join("w1", "127.0.0.1:8181")
	clk.advance(11 * time.Second)
	m.Sweep()
	if s := stateOf(t, m, "w1"); s != StateDead {
		t.Fatalf("setup: state = %s, want dead", s)
	}
	before := m.Epoch()
	if e := m.Join("w1", "127.0.0.1:8181"); e != before+1 {
		t.Fatalf("resurrection epoch = %d, want %d", e, before+1)
	}
	if s := stateOf(t, m, "w1"); s != StateAlive {
		t.Fatalf("state after resurrection = %s, want alive", s)
	}
	if m.AliveCount() != 1 {
		t.Fatalf("AliveCount = %d, want 1", m.AliveCount())
	}
}

func TestMembershipObserveFailureFastPath(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)
	m.Join("w1", "127.0.0.1:8181")

	// One failure: suspect immediately — faster than the sweep timers.
	m.ObserveFailure("w1")
	if s := stateOf(t, m, "w1"); s != StateSuspect {
		t.Fatalf("after 1 failure: state = %s, want suspect", s)
	}
	// deadFailStreak consecutive failures: dead, without any clock
	// advance at all.
	m.ObserveFailure("w1")
	m.ObserveFailure("w1")
	if s := stateOf(t, m, "w1"); s != StateDead {
		t.Fatalf("after 3 failures: state = %s, want dead", s)
	}
	if _, nodes := m.Routable(); len(nodes) != 0 {
		t.Fatalf("fail-streak-dead node still routable: %v", nodes)
	}

	// A success resurrects: traffic is evidence of life.
	m.ObserveSuccess("w1")
	if s := stateOf(t, m, "w1"); s != StateAlive {
		t.Fatalf("after success: state = %s, want alive", s)
	}

	// Unknown IDs are ignored without panicking.
	m.ObserveFailure("ghost")
	m.ObserveSuccess("ghost")
}

func TestMembershipSweepNeverResurrects(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)
	m.Join("w1", "127.0.0.1:8181")
	m.ObserveFailure("w1")
	m.ObserveFailure("w1")
	m.ObserveFailure("w1") // dead by fail streak
	// Its lastBeat is still fresh; a sweep must NOT promote dead → alive.
	clk.advance(time.Second)
	m.Sweep()
	if s := stateOf(t, m, "w1"); s != StateDead {
		t.Fatalf("sweep resurrected a dead node: %s", s)
	}
}

func TestMembershipSnapshotSorted(t *testing.T) {
	clk := newFakeClock()
	m := newTestMembership(clk)
	m.Join("w3", "a")
	m.Join("w1", "b")
	m.Join("w2", "c")
	v := m.Snapshot()
	if len(v.Nodes) != 3 || v.Nodes[0].ID != "w1" || v.Nodes[1].ID != "w2" || v.Nodes[2].ID != "w3" {
		t.Fatalf("snapshot not sorted by ID: %+v", v.Nodes)
	}
	clk.advance(1500 * time.Millisecond)
	for _, n := range m.Snapshot().Nodes {
		if n.LastBeatAgoMs != 1500 {
			t.Fatalf("LastBeatAgoMs = %d, want 1500", n.LastBeatAgoMs)
		}
	}
}
