package cluster

import (
	"testing"
	"time"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: 2 * time.Second, Now: clk.now})

	if !b.Allow() {
		t.Fatal("fresh breaker should allow")
	}
	b.Failure()
	b.Failure()
	if !b.Allow() || b.State() != "closed" {
		t.Fatalf("2 failures should not open (state=%s)", b.State())
	}
	b.Failure()
	if b.Allow() || b.State() != "open" {
		t.Fatalf("3 failures should open (state=%s)", b.State())
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailThreshold: 1, Cooldown: time.Second, Now: clk.now})
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe should be admitted")
	}
	// Exactly one probe: further Allows are rejected while it's in flight.
	if b.Allow() {
		t.Fatal("half-open admitted a second probe")
	}
	if b.State() != "half-open" {
		t.Fatalf("state = %s, want half-open", b.State())
	}

	// Probe success closes.
	b.Success()
	if !b.Allow() || b.State() != "closed" {
		t.Fatalf("probe success should close (state=%s)", b.State())
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailThreshold: 2, Cooldown: time.Second, Now: clk.now})
	b.Failure()
	b.Failure() // open
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Failure() // probe failed: re-open immediately, streak irrelevant
	if b.Allow() || b.State() != "open" {
		t.Fatalf("failed probe should re-open (state=%s)", b.State())
	}
	// And the clock restarts: still blocked until another full cooldown.
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker allowed before its new cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe not admitted after full cooldown")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: time.Second, Now: clk.now})
	b.Failure()
	b.Failure()
	b.Success() // streak resets
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("streak should have reset on success; breaker opened early")
	}
}
