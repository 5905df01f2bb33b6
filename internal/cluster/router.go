package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoNodes reports an empty (or fully dead) ring.
var ErrNoNodes = errors.New("cluster: no routable nodes")

// ErrUnavailable reports that every attempted candidate failed.
var ErrUnavailable = errors.New("cluster: all candidates failed")

// RouterConfig parameterizes the routing client.
type RouterConfig struct {
	// MaxAttempts bounds how many distinct ring candidates one request
	// may try (default 3). Candidates whose breaker is open are skipped
	// without consuming an attempt.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 5ms), doubling
	// per attempt up to MaxBackoff (default 100ms), with ±50% jitter so
	// a burst of failovers does not re-synchronize on the fallback node.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Hedge, when > 0, fires a second request to the next ring candidate
	// if the owner has not answered within this budget — the classic
	// tail-latency hedge. 0 disables hedging.
	Hedge time.Duration
	// Breaker parameterizes the per-node circuit breakers.
	Breaker BreakerConfig
	// Client overrides the HTTP client (default: the package's shared
	// pooled client).
	Client Doer
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 100 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = sharedClient
	}
	return c
}

// RouterStats is the router's /clusterz contribution.
type RouterStats struct {
	Retries   uint64            `json:"retries"`
	Hedges    uint64            `json:"hedges"`
	HedgeWins uint64            `json:"hedgeWins"`
	Breakers  map[string]string `json:"breakers"`
}

// Router routes keys to nodes: rendezvous ring over the membership's
// routable set (rebuilt only when the epoch moves), per-node circuit
// breakers, bounded retries with jittered backoff down the candidate
// list, and optional hedged requests. It feeds evidence back into the
// membership (ObserveSuccess/ObserveFailure) so routing outcomes — not
// just heartbeats — drive health state.
type Router struct {
	cfg RouterConfig
	mem *Membership

	ring     ringCache
	breakers breakerSet

	rng       atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
}

// NewRouter builds a router over mem.
func NewRouter(mem *Membership, cfg RouterConfig) *Router {
	r := &Router{cfg: cfg.withDefaults(), mem: mem}
	r.breakers.cfg = r.cfg.Breaker
	r.rng.Store(1) // xorshift state must be non-zero
	return r
}

// Ring returns the compiled ring for the current membership epoch,
// rebuilding at most once per epoch change (steady state is one atomic
// load plus one membership epoch read).
func (r *Router) Ring() *Ring {
	epoch, nodes := r.mem.Routable()
	if ring := r.ring.load(epoch); ring != nil {
		return ring
	}
	return r.ring.store(epoch, NewRing(nodes))
}

// Owner resolves key's current owner.
func (r *Router) Owner(key string) (NodeInfo, bool) { return r.Ring().Owner(key) }

// Stats snapshots the router counters and breaker states.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Retries:   r.retries.Load(),
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
		Breakers:  make(map[string]string),
	}
	r.breakers.m.Range(func(id, b any) bool {
		st.Breakers[id.(string)] = b.(*Breaker).State()
		return true
	})
	return st
}

// jitter returns d scaled into [d/2, d) using a lock-free xorshift
// stream — deterministic per seed, contention-free under load.
func (r *Router) jitter(d time.Duration) time.Duration {
	for {
		old := r.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if r.rng.CompareAndSwap(old, x) {
			half := int64(d) / 2
			return time.Duration(half + int64(x%uint64(half+1)))
		}
	}
}

// try performs one exchange with node nd.
func (r *Router) try(ctx context.Context, nd NodeInfo, method, path string, body []byte) (Reply, error) {
	rep, err := call(ctx, r.cfg.Client, method, nd.Addr, path, body)
	rep.NodeID = nd.ID
	return rep, err
}

// attempt runs try with breaker + membership bookkeeping.
func (r *Router) attempt(ctx context.Context, nd NodeInfo, method, path string, body []byte) (Reply, error) {
	rep, err := r.try(ctx, nd, method, path, body)
	br := r.breakers.get(nd.ID)
	if err != nil {
		// Do not punish a node for the caller's own cancellation: a
		// context deadline is not evidence the node is down.
		if ctx.Err() == nil {
			br.Failure()
			r.mem.ObserveFailure(nd.ID)
		}
		return Reply{}, err
	}
	br.Success()
	r.mem.ObserveSuccess(nd.ID)
	return rep, nil
}

// Do routes one request for key: walk the candidate list in rendezvous
// order, skipping open breakers, retrying transport/5xx failures on the
// next candidate with jittered exponential backoff, at most MaxAttempts
// actual attempts. Any sub-500 HTTP answer — including 429 — returns
// immediately.
func (r *Router) Do(ctx context.Context, key, method, path string, body []byte) (Reply, error) {
	cands := r.Ring().Candidates(key, 0)
	if len(cands) == 0 {
		return Reply{}, ErrNoNodes
	}
	return r.walk(ctx, cands, 0, method, path, body)
}

// walk attempts candidates[skipped:] sequentially. attemptsUsed seeds
// the attempt counter (used by the hedged path's fallback).
func (r *Router) walk(ctx context.Context, cands []NodeInfo, attemptsUsed int, method, path string, body []byte) (Reply, error) {
	attempts := attemptsUsed
	var lastErr error
	for _, nd := range cands {
		if attempts >= r.cfg.MaxAttempts {
			break
		}
		if !r.breakers.get(nd.ID).Allow() {
			continue // fail fast past an open breaker; no attempt consumed
		}
		if attempts > attemptsUsed {
			// Backoff before a retry, scaled by how many attempts this
			// call has already burned, jittered, capped, and cut short
			// by the caller's deadline.
			d := r.cfg.BaseBackoff << uint(attempts-attemptsUsed-1)
			if d > r.cfg.MaxBackoff {
				d = r.cfg.MaxBackoff
			}
			t := time.NewTimer(r.jitter(d))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Reply{}, ctx.Err()
			}
			r.retries.Add(1)
		}
		attempts++
		rep, err := r.attempt(ctx, nd, method, path, body)
		if err == nil {
			rep.Attempts = attempts
			return rep, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return Reply{}, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = ErrNoNodes // every candidate's breaker was open
	}
	return Reply{}, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, attempts-attemptsUsed, lastErr)
}

// hedgeResult carries one racer's outcome.
type hedgeResult struct {
	rep    Reply
	err    error
	hedged bool
}

// DoHedged is Do with tail-latency hedging: the owner gets a head
// start of cfg.Hedge; if it has not answered by then, the second
// candidate is raced against it and the first answer wins (the loser is
// cancelled). Falls back to plain Do when hedging is disabled or the
// ring has a single node. Hedges are issued to at most one extra node —
// bounded extra load, bounded tail.
func (r *Router) DoHedged(ctx context.Context, key, method, path string, body []byte) (Reply, error) {
	cands := r.Ring().Candidates(key, 0)
	if len(cands) == 0 {
		return Reply{}, ErrNoNodes
	}
	if r.cfg.Hedge <= 0 || len(cands) < 2 {
		return r.walk(ctx, cands, 0, method, path, body)
	}
	primary, secondary := cands[0], cands[1]
	if !r.breakers.get(primary.ID).Allow() {
		// Owner is circuit-broken: no point hedging around it, just
		// walk the remainder of the list.
		return r.walk(ctx, cands[1:], 0, method, path, body)
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan hedgeResult, 2) // buffered: losers never block
	launch := func(nd NodeInfo, hedged bool) {
		go func() {
			rep, err := r.attempt(raceCtx, nd, method, path, body)
			resc <- hedgeResult{rep: rep, err: err, hedged: hedged}
		}()
	}
	launch(primary, false)
	hedgeTimer := time.NewTimer(r.cfg.Hedge)
	defer hedgeTimer.Stop()

	outstanding := 1
	hedgeFired := false
	var lastErr error
	for outstanding > 0 {
		select {
		case res := <-resc:
			outstanding--
			if res.err == nil {
				cancel() // release the loser immediately
				res.rep.Hedged = res.hedged
				res.rep.Attempts = 1
				if res.hedged {
					r.hedgeWins.Add(1)
				}
				return res.rep, nil
			}
			lastErr = res.err
			if ctx.Err() != nil {
				return Reply{}, ctx.Err()
			}
			if !hedgeFired && outstanding == 0 {
				// Primary failed before the hedge timer: promote the
				// hedge to an immediate retry.
				if r.breakers.get(secondary.ID).Allow() {
					hedgeFired = true
					r.hedges.Add(1)
					launch(secondary, true)
					outstanding++
				}
			}
		case <-hedgeTimer.C:
			if !hedgeFired && r.breakers.get(secondary.ID).Allow() {
				hedgeFired = true
				r.hedges.Add(1)
				launch(secondary, true)
				outstanding++
			}
		case <-ctx.Done():
			return Reply{}, ctx.Err()
		}
	}
	// Both racers failed; walk the rest of the candidate list with the
	// two burned attempts accounted for.
	if len(cands) > 2 {
		return r.walk(ctx, cands[2:], 2, method, path, body)
	}
	return Reply{}, fmt.Errorf("%w after 2 attempts: %v", ErrUnavailable, lastErr)
}

// Broadcast fans one GET out to every routable node concurrently and
// returns the per-node replies (nil body entries for nodes that
// failed). Bodies are detached from the pool — callers own them
// outright and may retain them (merged /metrics does exactly that).
func (r *Router) Broadcast(ctx context.Context, path string) map[string]Reply {
	_, nodes := r.mem.Routable()
	out := make(map[string]Reply, len(nodes))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd NodeInfo) {
			defer wg.Done()
			rep, err := r.try(ctx, nd, http.MethodGet, path, nil)
			if err == nil {
				rep.Detach()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				out[nd.ID] = Reply{NodeID: nd.ID}
				return
			}
			out[nd.ID] = rep
		}(nd)
	}
	wg.Wait()
	return out
}
