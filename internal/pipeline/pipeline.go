// Package pipeline is a generic, context-aware scan engine over an index
// range: Run calls fn once for every index in [0, n), on workers that
// claim batches of consecutive indices from one shared cursor, each with
// one private state value built lazily on first use. Every run keeps
// counters — items in/out, errors, per-worker busy time — exposed as a
// Metrics snapshot, so corpus scans report where time goes.
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
// Positional guarantee: fn receives the index of its item, and the
// caller writes item i's result into slot i of a slice it owns. When Run
// returns nil every slot is written, so reading the slice in order is
// the sequential loop's output, whichever worker produced each result.
// The engine itself holds no results.
//
// Cancellation guarantee: workers check the context and the run's
// failure flag before each batch, so after a cancellation or the first
// fn error they finish the batch in hand, skip the rest, and exit before
// Run returns. No goroutines leak.
//
// Beyond corpus scans, the serving tiers reuse the same engine: the
// online service fans batch requests out across detector clones
// (internal/serve), and the cluster gateway scatter/gathers per-owner
// sub-batches with Batch:1 — each item one network round-trip — writing
// each sub-batch's answer at its own index (internal/cluster).
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBatch is the dispatch granularity when Config.Batch is unset:
// a worker claims this many consecutive indices at a time, amortizing
// the claim and the cancellation check for cheap per-item work (a
// µs-scale detector call).
const DefaultBatch = 32

// Config parameterizes an Engine.
type Config struct {
	// Stage names the engine in metrics output, e.g. "homograph".
	Stage string
	// Workers is the fan-out width; <= 0 selects GOMAXPROCS. A run
	// starts no more workers than it has batches.
	Workers int
	// Batch is how many consecutive indices a worker claims at a time;
	// <= 0 selects DefaultBatch. Use 1 when each item is itself heavy (a
	// whole zone file, a network probe) so the fan-out stays fine-
	// grained.
	Batch int
}

// Engine is a reusable scan stage. The zero value is not usable; build
// with New. An Engine may run many scans, concurrently too: all per-run
// state lives inside Run. Its metrics accumulate across runs (snapshot
// before/after to meter one run).
type Engine[W any] struct {
	workers   int
	batch     int
	newWorker func() W

	m *meter
}

// New builds an engine. newWorker constructs one private state value per
// worker — detectors that are not safe for concurrent use (the homograph
// renderer keeps a glyph cache) get one instance each. Construction is
// lazy: a worker that never processes an item never builds its state.
func New[W any](cfg Config, newWorker func() W) *Engine[W] {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Engine[W]{
		workers:   workers,
		batch:     batch,
		newWorker: newWorker,
		m:         newMeter(cfg.Stage, workers),
	}
}

// Metrics snapshots the engine's counters. Safe to call concurrently
// with a running scan; counts accumulate across scans.
func (e *Engine[W]) Metrics() Metrics { return e.m.snapshot() }

// Run calls fn(w, i) once for every i in [0, n), where w is the calling
// worker's state. The first fn error stops the run: no batch starts
// after it. Run returns once every worker has exited, with the first fn
// error, else ctx.Err().
func (e *Engine[W]) Run(ctx context.Context, n int, fn func(w W, i int) error) error {
	start := time.Now()
	defer func() { e.m.addElapsed(time.Since(start)) }()
	e.m.in.Add(uint64(n))

	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	batches := (n + e.batch - 1) / e.batch
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
				lo, hi := b*e.batch, min((b+1)*e.batch, n)
				// A batch claimed after a failure or cancellation is
				// skipped but still counted as consumed, so the backlog
				// gauge returns to zero.
				if !failed.Load() && ctx.Err() == nil {
					if !built {
						state = e.newWorker()
						built = true
					}
					t0 := time.Now()
					i := lo
					for ; i < hi; i++ {
						if err := fn(state, i); err != nil {
							e.m.errors.Add(1)
							errOnce.Do(func() { firstErr = err })
							failed.Store(true)
							break
						}
					}
					e.m.out.Add(uint64(i - lo))
					e.m.addBusy(id, time.Since(t0))
				}
				e.m.consumed.Add(uint64(hi - lo))
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
