package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrSaturated reports that the admission controller shed the request:
// every execution slot was busy and the bounded wait queue was full or
// the caller's deadline could not survive the queue. Handlers translate
// it to 429 + Retry-After.
var ErrSaturated = errors.New("serve: admission queue saturated")

// Admission is the server's load-shedding front door: a fixed pool of
// execution slots plus a bounded, deadline-aware wait queue. Work that
// cannot get a slot within its budget is rejected *early* with
// ErrSaturated instead of piling onto an unbounded queue — under
// overload the server degrades to fast 429s, never to queue collapse
// (the ZDNS-style architecture: bounded everything, shed at the edge).
//
// Deadline awareness: a queued waiter never waits longer than its
// context's remaining budget. A request that would time out while
// queued is shed immediately, so queue time is never spent on work
// whose client has already given up.
type Admission struct {
	slots    chan struct{}
	maxQueue int64
	maxWait  time.Duration

	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64
}

// NewAdmission builds a controller with maxInflight (≥ 1) execution
// slots, at most maxQueue concurrent waiters (0 sheds as soon as every
// slot is busy), and a per-waiter cap of maxWait in the queue.
func NewAdmission(maxInflight, maxQueue int, maxWait time.Duration) *Admission {
	return &Admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
}

// Admit acquires an execution slot, queueing within the configured and
// deadline-derived budget. On success it returns a release function that
// MUST be called exactly once. On saturation it returns ErrSaturated;
// on caller cancellation, ctx.Err().
func (a *Admission) Admit(ctx context.Context) (release func(), err error) {
	// Fast path: free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	default:
	}

	// Queue path: bounded waiter count, bounded wait.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return nil, ErrSaturated
	}
	defer a.queued.Add(-1)

	wait := a.maxWait
	if deadline, ok := ctx.Deadline(); ok {
		if remain := time.Until(deadline); remain < wait {
			wait = remain
		}
	}
	if wait <= 0 {
		a.shed.Add(1)
		return nil, ErrSaturated
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	case <-timer.C:
		a.shed.Add(1)
		return nil, ErrSaturated
	case <-ctx.Done():
		a.canceled.Add(1)
		return nil, ctx.Err()
	}
}

func (a *Admission) release() { <-a.slots }

// InFlight reports currently held slots; Queued reports current waiters.
func (a *Admission) InFlight() int { return len(a.slots) }

// Queued reports the number of requests waiting for a slot.
func (a *Admission) Queued() int { return int(a.queued.Load()) }

// Saturated reports that the controller has no headroom: every
// execution slot is busy AND the wait queue is full (for a queueless
// controller, busy slots alone). /readyz uses it to pull a node out of
// rotation *before* it starts shedding — a saturated node should stop
// receiving new connections, not 429 them.
func (a *Admission) Saturated() bool {
	if len(a.slots) < cap(a.slots) {
		return false
	}
	return a.queued.Load() >= a.maxQueue
}

// RetryAfterSeconds is the Retry-After hint sent with 429 responses:
// one maxWait rounded up to a whole second (HTTP Retry-After has
// one-second granularity).
func (a *Admission) RetryAfterSeconds() int {
	s := int((a.maxWait + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// AdmissionStats is the controller's /metrics contribution.
type AdmissionStats struct {
	MaxInflight int    `json:"maxInflight"`
	MaxQueue    int    `json:"maxQueue"`
	MaxWaitMs   int64  `json:"maxWaitMs"`
	InFlight    int    `json:"inFlight"`
	Queued      int    `json:"queued"`
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
	Canceled    uint64 `json:"canceled"`
}

// Stats snapshots the counters; safe during traffic.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxInflight: cap(a.slots),
		MaxQueue:    int(a.maxQueue),
		MaxWaitMs:   a.maxWait.Milliseconds(),
		InFlight:    a.InFlight(),
		Queued:      a.Queued(),
		Admitted:    a.admitted.Load(),
		Shed:        a.shed.Load(),
		Canceled:    a.canceled.Load(),
	}
}
