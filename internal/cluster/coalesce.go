package cluster

import (
	"context"
	"sync"
	"time"

	"idnlab/internal/api"
)

// Request coalescing: under concurrent single-detect load, many
// in-flight requests resolve to the same ring owner. Each would cost
// one upstream HTTP round trip; the worker answers them from the same
// per-key cache either way. The coalescer merges concurrent singles
// bound for the same owner into one upstream /v1/detect/batch call and
// demultiplexes the per-index results back to the waiting handlers —
// N round trips become one, and on rate-capped workers N admission
// tokens become one.
//
// State machine per (owner) window:
//
//	open    — created by the first submit; a flush timer is armed for
//	          CoalesceWindow. Later submits for the same owner append.
//	flushed — set under the lock by exactly one of: the size bound
//	          (len == CoalesceMax, flushed inline on the submitting
//	          goroutine) or the timer (flushed on the timer goroutine).
//	          Whoever sets it removes the window from the open map, so
//	          a submit can never land on a flushed window.
//
// Correctness properties the tests pin:
//   - a window of one falls back to the exact direct path (DoHedged:
//     hedging, breakers, Retry-After passthrough all preserved);
//   - responses are byte-identical to the uncoalesced path — the worker
//     computes batch items through the same per-key cache.Do singleflight
//     as singles, so coalescing never converts a cache hit into a miss;
//   - a lone request on a quiet gateway flushes within CoalesceWindow
//     (the timer is the no-traffic backstop, counted as a timer flush);
//   - a worker 429 fails the whole merged window with Retry-After, the
//     same all-or-nothing contract the batch endpoint itself has.
type coalescer struct {
	g    *Gateway
	mu   sync.Mutex
	open map[string]*cwindow // by owner node ID
}

// ccallResult is what a waiting handler receives: either a raw routed
// Reply (direct path — the handler passes status/body/Retry-After
// through and releases it) or a decoded DetectResponse (batched path).
type ccallResult struct {
	rep    Reply
	direct bool
	resp   api.DetectResponse
	err    error
}

// ccall is one waiting request. done is buffered so a flush never
// blocks on a handler that gave up (client disconnect).
type ccall struct {
	ace  string
	done chan ccallResult
}

type cwindow struct {
	key     string // routing key: first member's ACE
	calls   []*ccall
	timer   *time.Timer
	flushed bool
}

func newCoalescer(g *Gateway) *coalescer {
	return &coalescer{g: g, open: make(map[string]*cwindow)}
}

// submit enqueues one normalized single-detect for coalescing and
// returns the call whose done channel will carry the result.
func (c *coalescer) submit(ace string) (*ccall, error) {
	owner, ok := c.g.router.Owner(ace)
	if !ok {
		return nil, ErrNoNodes
	}
	call := &ccall{ace: ace, done: make(chan ccallResult, 1)}

	c.mu.Lock()
	w := c.open[owner.ID]
	if w == nil {
		w = &cwindow{key: ace}
		c.open[owner.ID] = w
		ownerID := owner.ID
		w.timer = time.AfterFunc(c.g.cfg.CoalesceWindow, func() { c.flushTimed(ownerID, w) })
	}
	w.calls = append(w.calls, call)
	if len(w.calls) >= c.g.cfg.CoalesceMax {
		// Size bound hit: this submitter flushes inline. Mark + unhook
		// under the lock so the timer (or another submit) cannot race.
		w.flushed = true
		delete(c.open, owner.ID)
		c.mu.Unlock()
		w.timer.Stop()
		c.flush(w)
		return call, nil
	}
	c.mu.Unlock()
	return call, nil
}

// flushTimed is the timer path: the window dispatches with however many
// calls accumulated during CoalesceWindow (usually one, on a quiet
// gateway — the starvation backstop).
func (c *coalescer) flushTimed(ownerID string, w *cwindow) {
	c.mu.Lock()
	if w.flushed {
		c.mu.Unlock()
		return
	}
	w.flushed = true
	if c.open[ownerID] == w {
		delete(c.open, ownerID)
	}
	c.mu.Unlock()
	c.g.metrics.coalTimeouts.Add(1)
	c.flush(w)
}

// fail delivers err to every waiting call.
func (w *cwindow) fail(err error) {
	for _, call := range w.calls {
		call.done <- ccallResult{err: err}
	}
}

// flush dispatches the window upstream and demultiplexes the results.
// It runs on either the size-bound submitter's goroutine or the timer
// goroutine; waiting handlers select on their own request contexts, so
// the flush context is the gateway's own upstream budget.
func (c *coalescer) flush(w *cwindow) {
	c.g.metrics.coalWindows.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.g.cfg.RequestTimeout)
	defer cancel()

	if len(w.calls) == 1 {
		// A window of one is the uncoalesced request: hedged,
		// breaker-aware, Retry-After passed through raw.
		rep, err := c.g.forwardSingle(ctx, w.calls[0].ace)
		w.calls[0].done <- ccallResult{rep: rep, direct: true, err: err}
		return
	}

	// A merged window is one owner's sub-batch.
	c.g.metrics.coalBatched.Add(uint64(len(w.calls)))
	domains := make([]string, len(w.calls))
	for i, call := range w.calls {
		domains[i] = call.ace
	}
	res, err := c.g.forwardSubBatch(subBatch{key: w.key, domains: domains, ctx: ctx})
	if err != nil {
		w.fail(err)
		return
	}
	for i, call := range w.calls {
		call.done <- ccallResult{resp: res.results[i]}
	}
}
