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

// Retry policy: one request tries at most maxAttempts distinct ring
// candidates. The first retry backs off baseBackoff, doubling per
// attempt up to maxBackoff, with ±50% jitter so a burst of failovers
// does not re-synchronize on the fallback node.
const (
	maxAttempts = 3
	baseBackoff = 5 * time.Millisecond
	maxBackoff  = 100 * time.Millisecond
)

// RouterConfig parameterizes the routing client.
type RouterConfig struct {
	// Client overrides the HTTP client (default: the package's shared
	// pooled client).
	Client Doer
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Client == nil {
		c.Client = sharedClient
	}
	return c
}

// RouterStats is the router's /clusterz contribution.
type RouterStats struct {
	Retries uint64 `json:"retries"`
}

// Router routes keys to nodes: rendezvous ring over the membership's
// routable set (rebuilt only when the epoch moves), and bounded retries
// with jittered backoff down the candidate list. Membership is the only
// per-node health signal: the router feeds every outcome back into it
// (ObserveSuccess/ObserveFailure), deadFailStreak consecutive failures
// take a node out of the ring, and a heartbeat or a success puts it
// back.
type Router struct {
	cfg RouterConfig
	mem *Membership

	ring ringCache

	rng     atomic.Uint64
	retries atomic.Uint64
}

// NewRouter builds a router over mem.
func NewRouter(mem *Membership, cfg RouterConfig) *Router {
	r := &Router{cfg: cfg.withDefaults(), mem: mem}
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

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats { return RouterStats{Retries: r.retries.Load()} }

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

// attempt runs try with membership bookkeeping.
func (r *Router) attempt(ctx context.Context, nd NodeInfo, method, path string, body []byte) (Reply, error) {
	rep, err := r.try(ctx, nd, method, path, body)
	if err != nil {
		// Do not punish a node for the caller's own cancellation: a
		// context deadline is not evidence the node is down.
		if ctx.Err() == nil {
			r.mem.ObserveFailure(nd.ID)
		}
		return Reply{}, err
	}
	r.mem.ObserveSuccess(nd.ID)
	return rep, nil
}

// Do routes one request for key: walk the candidate list in rendezvous
// order, retrying transport/5xx failures on the next candidate with
// jittered exponential backoff, at most maxAttempts attempts. Any
// sub-500 HTTP answer — including 429 — returns immediately.
func (r *Router) Do(ctx context.Context, key, method, path string, body []byte) (Reply, error) {
	cands := r.Ring().Candidates(key, 0)
	if len(cands) == 0 {
		return Reply{}, ErrNoNodes
	}
	cands = cands[:min(len(cands), maxAttempts)]
	var lastErr error
	for i, nd := range cands {
		if i > 0 {
			// Backoff before a retry, scaled by how many attempts this
			// call has already burned, jittered, capped, and cut short
			// by the caller's deadline.
			d := min(baseBackoff<<uint(i-1), maxBackoff)
			t := time.NewTimer(r.jitter(d))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Reply{}, ctx.Err()
			}
			r.retries.Add(1)
		}
		rep, err := r.attempt(ctx, nd, method, path, body)
		if err == nil {
			rep.Attempts = i + 1
			return rep, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return Reply{}, ctx.Err()
		}
	}
	return Reply{}, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, len(cands), lastErr)
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
