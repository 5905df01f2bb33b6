// Package pipeline is a generic, context-aware scan engine that maps a
// slice: workers claim batches of consecutive items from one shared
// cursor, each with one private state value built lazily on first use,
// and the caller's goroutine hands every batch's results to the sink in
// input order. Every run keeps counters — items in/out, errors,
// per-worker busy time — exposed as a Metrics snapshot, so corpus scans
// report where time goes.
//
// The engine exists because the paper's brute-force homograph sweep took
// 102 hours on one machine (§VI-B): every corpus-scale scan in this
// repository is embarrassingly parallel. Its input is a slice the caller
// already holds (a corpus, a parsed delta, a request's domains, a list
// of report sections), so there is no feeder and no input queue. A
// worker claims the next batch when it finishes its last, so workers
// stay busy whatever the corpus size versus worker count; at most
// min(Workers, batches) goroutines start.
//
// Ordering guarantee: results are delivered to the sink in input order,
// regardless of which worker produced them or how long it took. A scan
// through the engine is therefore a pure speedup of the sequential loop:
// same results, same order.
//
// Cancellation guarantee: when the caller's context is cancelled
// mid-corpus, Stream/Collect return ctx.Err() after draining — workers
// finish or abandon their current batch, skip the rest, and exit before
// the call returns. No goroutines leak.
//
// Beyond corpus scans, the serving tiers reuse the same engine: the
// online service fans batch requests out across detector clones
// (internal/serve), and the cluster gateway scatter/gathers per-owner
// sub-batches with Batch:1 — each item one network round-trip — relying
// on the ordering guarantee to reassemble responses at their original
// request indices (internal/cluster).
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBatch is the dispatch granularity when Config.Batch is unset:
// a worker claims this many consecutive items at a time, amortizing the
// claim and the hand-back for cheap per-item work (a µs-scale detector
// call).
const DefaultBatch = 32

// Config parameterizes an Engine.
type Config struct {
	// Stage names the engine in metrics output, e.g. "homograph".
	Stage string
	// Workers is the fan-out width; <= 0 selects GOMAXPROCS. A run
	// starts no more workers than it has batches.
	Workers int
	// Batch is how many consecutive items a worker claims at a time;
	// <= 0 selects DefaultBatch. Use 1 when each item is itself heavy (a
	// whole zone file, a network probe) so the fan-out stays fine-
	// grained. Batching never affects output order.
	Batch int
}

// Func processes one item with per-worker state W. Returning ok=false
// drops the item from the output stream (a filter); returning a non-nil
// error aborts the whole run with that error.
type Func[T, R, W any] func(w W, item T) (R, bool, error)

// Engine is a reusable scan stage. The zero value is not usable; build
// with New. An Engine may run many scans, concurrently too: all per-run
// state lives inside Stream. Its metrics accumulate across runs
// (snapshot before/after to meter one run).
type Engine[T, R, W any] struct {
	workers   int
	batch     int
	newWorker func() W
	fn        Func[T, R, W]

	m *meter
}

// New builds an engine. newWorker constructs one private state value per
// worker — detectors that are not safe for concurrent use (the homograph
// renderer keeps a glyph cache) get one instance each. Construction is
// lazy: a worker that never processes an item never builds its state.
func New[T, R, W any](cfg Config, newWorker func() W, fn Func[T, R, W]) *Engine[T, R, W] {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Engine[T, R, W]{
		workers:   workers,
		batch:     batch,
		newWorker: newWorker,
		fn:        fn,
		m:         newMeter(cfg.Stage, workers),
	}
}

// Metrics snapshots the engine's counters. Safe to call concurrently
// with a running scan; counts accumulate across scans.
func (e *Engine[T, R, W]) Metrics() Metrics { return e.m.snapshot() }

// Stream runs the scan over items, delivering results to sink in input
// order from the caller's goroutine. It returns the first error among a
// Func error, a sink error, or ctx.Err() on cancellation; after the
// first, nothing more reaches the sink. Every worker has exited when
// Stream returns.
func (e *Engine[T, R, W]) Stream(ctx context.Context, items []T, sink func(R) error) error {
	start := time.Now()
	defer func() { e.m.addElapsed(time.Since(start)) }()
	e.m.in.Add(uint64(len(items)))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}

	// Batch b is items[b*batch:], at most batch long. A worker puts its
	// kept results in slots[b] and then sends b on finished; the channel
	// holds every batch, so no worker ever waits for the sink.
	batches := (len(items) + e.batch - 1) / e.batch
	slots := make([][]R, batches)
	finished := make(chan int, batches)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for id := range min(e.workers, batches) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state W
			built := false
			for {
				b := int(cursor.Add(1) - 1)
				if b >= batches {
					return
				}
				chunk := items[b*e.batch : min((b+1)*e.batch, len(items))]
				// A batch claimed after cancellation is skipped but
				// still counted as consumed, so the backlog gauge
				// returns to zero.
				if runCtx.Err() == nil {
					if !built {
						state = e.newWorker()
						built = true
					}
					t0 := time.Now()
					slots[b] = e.run(runCtx, state, chunk, fail)
					e.m.addBusy(id, time.Since(t0))
				}
				e.m.consumed.Add(uint64(len(chunk)))
				finished <- b
			}
		}()
	}

	// Deliver each batch once every earlier batch has been delivered.
	// Results of finished batches wait for earlier ones, so at most
	// len(items) results are held.
	done := make([]bool, batches)
	next := 0
	for range batches {
		done[<-finished] = true
		for ; next < batches && done[next]; next++ {
			vals := slots[next]
			slots[next] = nil
			if runCtx.Err() != nil {
				continue
			}
			for _, v := range vals {
				if err := sink(v); err != nil {
					fail(err)
					break
				}
				e.m.out.Add(1)
			}
		}
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// run applies the Func to one batch and returns the results it kept. A
// Func error fails the run; a failed or cancelled run abandons the
// batch, and the sink never sees its results.
func (e *Engine[T, R, W]) run(ctx context.Context, state W, chunk []T, fail func(error)) []R {
	var vals []R
	for _, item := range chunk {
		if ctx.Err() != nil {
			return nil
		}
		val, ok, err := e.fn(state, item)
		if err != nil {
			e.m.errors.Add(1)
			fail(err)
			return nil
		}
		if ok {
			if vals == nil {
				vals = make([]R, 0, len(chunk))
			}
			vals = append(vals, val)
		}
	}
	return vals
}

// Collect runs the scan and gathers all results, in input order, into a
// slice sized once for every item (a filtering Func only shortens it).
func (e *Engine[T, R, W]) Collect(ctx context.Context, items []T) ([]R, error) {
	out := make([]R, 0, len(items))
	if err := e.Stream(ctx, items, func(r R) error {
		out = append(out, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
