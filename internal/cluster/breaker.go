package cluster

import (
	"sync"
	"time"
)

// BreakerConfig parameterizes a per-node circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that opens the
	// breaker (default 3).
	FailThreshold int
	// Cooldown is how long an open breaker blocks traffic before
	// allowing one half-open probe (default 2s).
	Cooldown time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a per-node circuit breaker: closed under normal operation,
// open after FailThreshold consecutive failures (requests fail fast
// without a connection attempt — the router skips to the next ring
// candidate instead of paying a dial timeout per request), and
// half-open after the cooldown, admitting exactly one probe whose
// outcome closes or re-opens the circuit. This is what makes a dead
// worker cost one failed dial per cooldown instead of one per request,
// and what heals the route automatically when the worker comes back.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. In the open state it
// returns false until the cooldown elapses, then transitions to
// half-open and admits a single probe (subsequent Allow calls return
// false until the probe reports Success or Failure).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = breakerHalfOpen
			return true // the probe
		}
		return false
	default: // half-open: probe in flight
		return false
	}
}

// Success reports a successful request: the breaker closes and the
// failure streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// Failure reports a failed request: in half-open it re-opens
// immediately; in closed it opens once the streak reaches the
// threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.cfg.FailThreshold {
		b.state = breakerOpen
		b.openedAt = b.cfg.Now()
	}
}

// State reports the breaker's state as a string for /clusterz.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// breakerSet is a lazily filled set of per-node breakers that share one
// configuration.
type breakerSet struct {
	cfg BreakerConfig
	m   sync.Map // node id → *Breaker
}

func (s *breakerSet) get(id string) *Breaker {
	if b, ok := s.m.Load(id); ok {
		return b.(*Breaker)
	}
	b, _ := s.m.LoadOrStore(id, NewBreaker(s.cfg))
	return b.(*Breaker)
}
