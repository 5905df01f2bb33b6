// Package pipeline is a generic, context-aware streaming scan engine:
// a bounded input channel feeds a sharded worker fan-out (one private
// state value per worker, built lazily on first use) whose results are
// re-assembled by an order-preserving fan-in. Every stage keeps counters
// — items in/out, errors, per-worker busy time — exposed as a Metrics
// snapshot, so corpus scans report where time goes.
//
// The engine exists because the paper's brute-force homograph sweep took
// 102 hours on one machine (§VI-B): every corpus-scale scan in this
// repository (homograph, semantic, zone ingestion) is embarrassingly
// parallel but was previously sequential, fully in-memory, and
// unobservable. Items are distributed one at a time, never in precomputed
// shards, so workers stay busy regardless of corpus size versus worker
// count (the failure mode of ceil(len/workers) chunking, where
// workers > len(corpus)/chunk leaves workers idle).
//
// Ordering guarantee: results are delivered to the sink in input order,
// regardless of which worker produced them or how long it took. A scan
// through the engine is therefore a pure speedup of the sequential loop:
// same results, same order.
//
// Cancellation guarantee: when the caller's context is cancelled
// mid-corpus, Stream/Collect return ctx.Err() after draining — the
// feeder stops, workers finish or skip their current item, and every
// goroutine exits before the call returns. No goroutines leak.
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
	"time"
)

// DefaultBatch is the dispatch granularity when Config.Batch is unset:
// items are handed to workers in groups of this size, amortizing channel
// overhead for cheap per-item work (a µs-scale detector call costs less
// than the channel handoff would item by item).
const DefaultBatch = 32

// Config parameterizes an Engine.
type Config struct {
	// Stage names the engine in metrics output, e.g. "homograph".
	Stage string
	// Workers is the fan-out width; <= 0 selects GOMAXPROCS. The input
	// and output channels hold 2×Workers batches (backpressure).
	Workers int
	// Batch is how many items a worker receives per dispatch; <= 0
	// selects DefaultBatch. Use 1 when each item is itself heavy (a
	// whole zone file, a network probe) so the fan-out stays fine-
	// grained. Batching never affects output order.
	Batch int
}

// Source produces the input stream. It must call emit for every item in
// order and return emit's error unchanged if emit fails (emit fails only
// on cancellation). Sources are pull-agnostic: a slice, a channel, a
// zone-file scanner — anything that can push items.
type Source[T any] func(ctx context.Context, emit func(T) error) error

// FromSlice adapts a slice to a Source.
func FromSlice[T any](items []T) Source[T] {
	return func(ctx context.Context, emit func(T) error) error {
		for _, item := range items {
			if err := emit(item); err != nil {
				return err
			}
		}
		return nil
	}
}

// Func processes one item with per-worker state W. Returning ok=false
// drops the item from the output stream (a filter); returning a non-nil
// error aborts the whole run with that error.
type Func[T, R, W any] func(w W, item T) (R, bool, error)

// Engine is a reusable streaming scan stage. The zero value is not
// usable; build with New. An Engine may run many scans; its metrics
// accumulate across runs (snapshot before/after to meter one run).
type Engine[T, R, W any] struct {
	cfg       Config
	workers   int
	buffer    int
	batch     int
	newWorker func() W
	fn        Func[T, R, W]

	m *meter
}

// New builds an engine. newWorker constructs one private state value per
// worker — detectors that are not safe for concurrent use (the homograph
// renderer keeps a glyph cache) get one instance each. Construction is
// lazy: a worker that never receives an item never builds its state, so
// oversized worker counts on tiny corpora cost goroutines, not
// detectors.
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
		cfg:       cfg,
		workers:   workers,
		buffer:    2 * workers,
		batch:     batch,
		newWorker: newWorker,
		fn:        fn,
		m:         newMeter(cfg.Stage, workers),
	}
}

// Metrics snapshots the engine's counters. Safe to call concurrently
// with a running scan; counts accumulate across scans.
func (e *Engine[T, R, W]) Metrics() Metrics { return e.m.snapshot() }

// job and result carry the sequence number of their first item so the
// fan-in can restore input order no matter which worker finishes first.
// Items travel in small batches to amortize channel overhead; results
// keep only the items the Func retained, in batch order, plus the count
// of items consumed so the fan-in can advance its cursor.
type job[T any] struct {
	seq   uint64
	items []T
}

type result[R any] struct {
	seq  uint64
	n    int // input items consumed
	vals []R // retained results, in input order
}

// Stream runs the scan, delivering results to sink in input order. It
// returns the first error among: a Func error, a sink error, the
// source's own error, or ctx.Err() on cancellation. On any error the
// pipeline drains fully before returning — no goroutine outlives the
// call.
func (e *Engine[T, R, W]) Stream(ctx context.Context, src Source[T], sink func(R) error) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errOnce.Do(func() { firstErr = err })
		cancel()
	}

	jobs := make(chan job[T], e.buffer)
	results := make(chan result[R], e.buffer)

	start := time.Now()
	defer func() { e.m.addElapsed(time.Since(start)) }()

	// Feeder: sequence, batch and bound the input.
	go func() {
		defer close(jobs)
		var seq uint64
		batch := make([]T, 0, e.batch)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			j := job[T]{seq: seq, items: batch}
			select {
			case jobs <- j:
				seq += uint64(len(batch))
				e.m.in.Add(uint64(len(batch)))
				batch = make([]T, 0, e.batch)
				return nil
			case <-runCtx.Done():
				return runCtx.Err()
			}
		}
		err := src(runCtx, func(item T) error {
			batch = append(batch, item)
			if len(batch) < e.batch {
				return nil
			}
			return flush()
		})
		if err == nil {
			err = flush()
		}
		if err != nil && err != runCtx.Err() {
			// A genuine source failure, not our own cancellation
			// echoed back.
			fail(err)
		}
	}()

	// Workers: private lazily-built state, one batch at a time.
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var (
				state W
				built bool
			)
			for j := range jobs {
				if runCtx.Err() != nil {
					// Drain without processing — still counted as
					// consumed so the backlog gauge returns to zero
					// after cancellation.
					e.m.consumed.Add(uint64(len(j.items)))
					continue
				}
				if !built {
					state = e.newWorker()
					built = true
				}
				t0 := time.Now()
				vals := make([]R, 0, len(j.items))
				aborted := false
				for _, item := range j.items {
					if runCtx.Err() != nil {
						aborted = true
						break
					}
					val, ok, err := e.fn(state, item)
					if err != nil {
						e.m.errors.Add(1)
						fail(err)
						aborted = true
						break
					}
					if ok {
						vals = append(vals, val)
					}
				}
				e.m.addBusy(id, time.Since(t0))
				e.m.consumed.Add(uint64(len(j.items)))
				if aborted {
					continue
				}
				select {
				case results <- result[R]{seq: j.seq, n: len(j.items), vals: vals}:
				case <-runCtx.Done():
				}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fan-in: restore input order. pending holds at most
	// buffer+workers in-flight batches, so memory stays bounded by
	// configuration, not corpus size.
	pending := make(map[uint64]result[R], e.buffer)
	var next uint64
	sinkDead := false
	for r := range results {
		pending[r.seq] = r
		for {
			p, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			next += uint64(p.n)
			for _, v := range p.vals {
				if sinkDead {
					break
				}
				if err := sink(v); err != nil {
					sinkDead = true
					fail(err)
					break
				}
				e.m.out.Add(1)
			}
		}
	}

	errOnce.Do(func() {}) // seal firstErr
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// Collect runs the scan and gathers all results, in input order, into a
// slice.
func (e *Engine[T, R, W]) Collect(ctx context.Context, src Source[T]) ([]R, error) {
	var out []R
	if err := e.Stream(ctx, src, func(r R) error {
		out = append(out, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
