package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func none() struct{} { return struct{}{} }

// runMatchesLoop runs n items at the given width and checks that each
// index is visited exactly once and that the caller's slice equals the
// sequential loop. delay(i) is slept in item i.
func runMatchesLoop(t *testing.T, workers, n int, delay func(int) time.Duration) {
	t.Helper()
	eng := New(Config{Workers: workers}, none)
	out := make([]int, n)
	var calls atomic.Int64
	err := eng.Run(context.Background(), n, func(_ struct{}, i int) error {
		calls.Add(1)
		time.Sleep(delay(i))
		out[i] = 3*i + 1
		return nil
	})
	if err != nil {
		t.Fatalf("workers=%d n=%d: %v", workers, n, err)
	}
	if c := calls.Load(); c != int64(n) {
		t.Fatalf("workers=%d n=%d: %d calls", workers, n, c)
	}
	for i, v := range out {
		if v != 3*i+1 {
			t.Fatalf("workers=%d n=%d: out[%d] = %d", workers, n, i, v)
		}
	}
	if m := eng.Metrics(); m.In != uint64(n) || m.Out != uint64(n) || m.Backlog() != 0 {
		t.Fatalf("workers=%d n=%d: metrics %+v", workers, n, m)
	}
}

// TestCollectPreservesOrder: random per-item delays make out-of-order
// completion certain; at every width each result still lands at its
// own index, as the sequential loop would put it.
func TestCollectPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1000)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(20)) * time.Microsecond
	}
	for _, workers := range []int{1, 2, 8} {
		runMatchesLoop(t, workers, len(delays), func(i int) time.Duration { return delays[i] })
	}
}

// TestCollectEdgeSizes: the sizes that break chunked sharding — empty,
// one item, fewer items than workers, one short of a batch, exactly
// one, one over — each match the sequential loop at every width.
func TestCollectEdgeSizes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 3, DefaultBatch - 1, DefaultBatch, DefaultBatch + 1} {
			runMatchesLoop(t, workers, n, func(int) time.Duration { return 0 })
		}
	}
}

// TestRunAllocsIndependentOfN: the engine holds no results, so a run
// allocates the same whatever its length — one worker, 32 batches or
// 512.
func TestRunAllocsIndependentOfN(t *testing.T) {
	eng := New(Config{Workers: 1, Batch: 8}, none)
	out := make([]int, 4096)
	run := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := eng.Run(context.Background(), n, func(_ struct{}, i int) error {
				out[i] = i
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := run(256), run(4096); small != large {
		t.Fatalf("allocs per run: %.1f at n=256, %.1f at n=4096", small, large)
	}
}

func TestLazyWorkerConstruction(t *testing.T) {
	// 16 workers, 2 items: at most 2 worker states may be built.
	var built atomic.Int32
	eng := New(Config{Workers: 16}, func() int { built.Add(1); return 0 })
	if err := eng.Run(context.Background(), 2, func(int, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b > 2 {
		t.Fatalf("built %d worker states for 2 items", b)
	}
}

// TestWorkersNeverOutnumberBatches: a run starts no more workers than
// it has batches — 2 items at Batch 1 run on at most 2 goroutines
// besides the caller's, however wide the engine.
func TestWorkersNeverOutnumberBatches(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	eng := New(Config{Workers: 16, Batch: 1}, none)
	err := eng.Run(context.Background(), 2, func(struct{}, int) error {
		// Sampled on entry and again once every started goroutine has
		// had time to show.
		sample := func() {
			for now := int64(runtime.NumGoroutine()); ; {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					return
				}
			}
		}
		sample()
		time.Sleep(10 * time.Millisecond)
		sample()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra := peak.Load() - int64(baseline); extra > 2 {
		t.Fatalf("%d goroutines beyond the caller's ran 2 items", extra)
	}
}

// TestFuncErrorAborts: the first fn error comes back, and no batch
// starts after it. One worker makes "after" exact: the failing batch
// stops at the failing index and every later batch is skipped.
func TestFuncErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		eng := New(Config{Workers: workers, Batch: 8}, none)
		var calls atomic.Int64
		err := eng.Run(context.Background(), 1000, func(_ struct{}, i int) error {
			calls.Add(1)
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		m := eng.Metrics()
		if m.Errors != 1 || m.Consumed != 1000 || m.Out != uint64(calls.Load()-1) {
			t.Fatalf("workers=%d: %d calls, metrics %+v", workers, calls.Load(), m)
		}
		if workers == 1 && calls.Load() != 18 {
			t.Fatalf("one worker: %d calls, want 18", calls.Load())
		}
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := New(Config{Workers: 4}, none).Run(ctx, 100, func(struct{}, int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("%d calls under a cancelled context", c)
	}
}

// TestCancellationMidScanDrains cancels deterministically from inside an
// fn call and asserts ctx.Err() comes back and every goroutine drains.
func TestCancellationMidScanDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var processed atomic.Int64
	eng := New(Config{Workers: 6}, none)
	err := eng.Run(ctx, 100000, func(struct{}, int) error {
		if processed.Add(1) == 10 {
			cancel() // cancel mid-corpus, deterministically
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p := processed.Load(); p >= 100000 {
		t.Fatalf("cancellation did not stop the scan (processed %d)", p)
	}
	assertNoLeakedGoroutines(t, before)
}

func TestMetricsCounters(t *testing.T) {
	eng := New(Config{Stage: "m", Workers: 3}, none)
	sleep := func(struct{}, int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	if err := eng.Run(context.Background(), 30, sleep); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Stage != "m" || m.Workers != 3 {
		t.Fatalf("identity: %+v", m)
	}
	if m.In != 30 || m.Out != 30 || m.Errors != 0 {
		t.Fatalf("counters: %+v", m)
	}
	if m.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", m.Elapsed)
	}
	var busy time.Duration
	for _, b := range m.Busy {
		busy += b
	}
	if busy <= 0 {
		t.Fatalf("busy = %v", busy)
	}
	if m.Throughput() <= 0 {
		t.Fatalf("throughput = %f", m.Throughput())
	}
	if u := m.Utilization(); u <= 0 || u > 1.0 {
		t.Fatalf("utilization = %f", u)
	}
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
	// Second run accumulates.
	prev := m
	if err := eng.Run(context.Background(), 10, sleep); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.In != prev.In+10 || m.Out != prev.Out+10 {
		t.Fatalf("after a second scan of 10: %+v, before %+v", m, prev)
	}
}

func TestDefaultsResolve(t *testing.T) {
	eng := New(Config{}, none)
	if eng.workers != runtime.GOMAXPROCS(0) || eng.batch != DefaultBatch {
		t.Fatalf("workers = %d, batch = %d; want GOMAXPROCS, DefaultBatch", eng.workers, eng.batch)
	}
	if m := eng.Metrics(); m.Stage != "scan" {
		t.Fatalf("stage = %q, want default", m.Stage)
	}
}

// assertNoLeakedGoroutines retries until the goroutine count settles at
// or below the baseline (with slack for runtime background goroutines).
func assertNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after settle", before, now)
}

// TestBacklogGauge: while workers are gated, the backlog gauge shows the
// items accepted but not yet consumed; once the gate opens and the scan
// completes, the backlog returns to exactly zero.
func TestBacklogGauge(t *testing.T) {
	gate := make(chan struct{})
	var entered atomic.Int32
	eng := New(Config{Stage: "gated", Workers: 2, Batch: 1}, none)

	done := make(chan error, 1)
	go func() {
		done <- eng.Run(context.Background(), 32, func(struct{}, int) error {
			entered.Add(1)
			<-gate
			return nil
		})
	}()

	// Wait until both workers are parked inside fn with unclaimed
	// batches behind them.
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < 2 || eng.Metrics().Backlog() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never built up: entered=%d metrics=%+v", entered.Load(), eng.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	m := eng.Metrics()
	if m.Backlog() == 0 || m.Consumed > m.In {
		t.Fatalf("mid-scan snapshot inconsistent: %+v", m)
	}
	if j := m.JSON(); j.Backlog != m.Backlog() {
		t.Fatalf("JSON backlog %d != %d", j.Backlog, m.Backlog())
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	m = eng.Metrics()
	if m.Backlog() != 0 {
		t.Fatalf("backlog after completion = %d, want 0 (in=%d consumed=%d)", m.Backlog(), m.In, m.Consumed)
	}
	if m.In != 32 || m.Consumed != 32 {
		t.Fatalf("in=%d consumed=%d, want 32/32", m.In, m.Consumed)
	}
}

// TestBacklogDrainsOnCancel: cancellation mid-scan must still account
// every accepted item as consumed via the skip path, so the gauge does
// not stick at a nonzero value after an aborted run.
func TestBacklogDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Config{Stage: "cancelled", Workers: 2, Batch: 1}, none)
	err := eng.Run(ctx, 1000, func(_ struct{}, i int) error {
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m := eng.Metrics(); m.Backlog() != 0 {
		t.Fatalf("backlog after cancelled run = %d (in=%d consumed=%d), want 0", m.Backlog(), m.In, m.Consumed)
	}
}

// BenchmarkRun measures the engine's own cost on the three shapes its
// callers run: a serve batch (256 domains, Batch 8, 2 workers), a watch
// delta (15.8k events, Batch 32, 2 workers) and a gateway scatter (2
// sub-batches, Batch 1, 16 workers). Each fn hashes one string into the
// caller's slot, so the engine, not the work, dominates.
func BenchmarkRun(b *testing.B) {
	hash := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	owners := make([]string, 15800)
	for i := range owners {
		owners[i] = fmt.Sprintf("xn--domain-%04d.example", i%256)
	}
	out := make([]uint64, len(owners))
	run := func(b *testing.B, cfg Config, n int) {
		eng := New(cfg, none)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(context.Background(), n, func(_ struct{}, j int) error {
				out[j] = hash(owners[j])
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serve_batch", func(b *testing.B) { run(b, Config{Workers: 2, Batch: 8}, 256) })
	b.Run("watch_delta", func(b *testing.B) { run(b, Config{Workers: 2, Batch: 32}, len(owners)) })
	b.Run("gateway_scatter", func(b *testing.B) { run(b, Config{Workers: 16, Batch: 1}, 2) })
}
