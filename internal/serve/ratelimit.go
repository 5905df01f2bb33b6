package serve

import (
	"sync"
	"time"
)

// rateLimiter is a token bucket capping a node's admitted request rate.
// It models fixed per-node capacity: the verdict cache makes warm hits
// nearly free, so CPU-based admission alone never sheds on warm traffic
// — but a node still has an SLA-sized share of downstream resources
// (sockets, memory bandwidth, the hardware it was provisioned for). The
// cap is what makes horizontal scaling observable: N rate-capped
// workers behind the gateway sustain ~N× one worker's ceiling.
//
// The bucket holds up to one second of rate (burst == rps): idle
// seconds bank capacity for bursts without letting the long-run rate
// exceed the cap.
type rateLimiter struct {
	mu     sync.Mutex
	rps    float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// newRateLimiter builds a limiter admitting rps requests per second;
// rps <= 0 returns nil (unlimited).
func newRateLimiter(rps int) *rateLimiter {
	if rps <= 0 {
		return nil
	}
	l := &rateLimiter{rps: float64(rps), tokens: float64(rps), now: time.Now}
	l.last = l.now()
	return l
}

// Allow consumes one token if available.
func (l *rateLimiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.rps
	if l.tokens > l.rps {
		l.tokens = l.rps // burst cap: one second of rate
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
