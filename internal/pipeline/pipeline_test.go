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

// double is the trivial fn used by most tests: no worker state, item*2.
func double() *Engine[int, int, struct{}] {
	return New(Config{Stage: "double", Workers: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) { return 2 * n, true, nil })
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCollectPreservesOrder(t *testing.T) {
	// Random per-item delays make out-of-order completion certain; the
	// fan-in must still deliver input order.
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 200)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	eng := New(Config{Workers: 8},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			time.Sleep(delays[n])
			return n, true, nil
		})
	out, err := eng.Collect(context.Background(), ints(len(delays)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(delays) {
		t.Fatalf("len = %d, want %d", len(out), len(delays))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: order not preserved", i, v)
		}
	}
}

func TestCollectEdgeSizes(t *testing.T) {
	// Sizes 0, 1 and len < workers — the shapes that break chunked
	// sharding.
	for _, n := range []int{0, 1, 2, 3} {
		out, err := double().Collect(context.Background(), ints(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d results", n, len(out))
		}
		for i, v := range out {
			if v != 2*i {
				t.Fatalf("n=%d: out[%d] = %d", n, i, v)
			}
		}
	}
}

func TestFilterDropsButKeepsOrder(t *testing.T) {
	eng := New(Config{Workers: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) { return n, n%3 == 0, nil })
	out, err := eng.Collect(context.Background(), ints(100))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 3*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 3*i)
		}
	}
	m := eng.Metrics()
	if m.In != 100 || m.Out != 34 {
		t.Fatalf("metrics in=%d out=%d, want 100/34", m.In, m.Out)
	}
}

func TestLazyWorkerConstruction(t *testing.T) {
	// 16 workers, 2 items: at most 2 worker states may be built.
	var built atomic.Int32
	eng := New(Config{Workers: 16},
		func() int { built.Add(1); return 0 },
		func(_ int, n int) (int, bool, error) { return n, true, nil })
	if _, err := eng.Collect(context.Background(), ints(2)); err != nil {
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
	eng := New(Config{Workers: 16, Batch: 1},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			// Sampled on entry and again once every started goroutine
			// has had time to show.
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
			return n, true, nil
		})
	if _, err := eng.Collect(context.Background(), ints(2)); err != nil {
		t.Fatal(err)
	}
	if extra := peak.Load() - int64(baseline); extra > 2 {
		t.Fatalf("%d goroutines beyond the caller's ran 2 items", extra)
	}
}

func TestFuncErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	eng := New(Config{Workers: 4},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			if n == 17 {
				return 0, false, boom
			}
			return n, true, nil
		})
	_, err := eng.Collect(context.Background(), ints(1000))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if m := eng.Metrics(); m.Errors != 1 {
		t.Fatalf("errors = %d, want 1", m.Errors)
	}
}

func TestSinkErrorAborts(t *testing.T) {
	stop := errors.New("stop")
	err := double().Stream(context.Background(), ints(1000), func(n int) error {
		if n >= 20 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := double().Collect(ctx, ints(100))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancellationMidScanDrains cancels deterministically from inside a
// Func call and asserts ctx.Err() comes back and every goroutine drains.
func TestCancellationMidScanDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var processed atomic.Int64
	eng := New(Config{Workers: 6},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			if processed.Add(1) == 10 {
				cancel() // cancel mid-corpus, deterministically
			}
			return n, true, nil
		})
	_, err := eng.Collect(ctx, ints(100000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p := processed.Load(); p >= 100000 {
		t.Fatalf("cancellation did not stop the scan (processed %d)", p)
	}
	assertNoLeakedGoroutines(t, before)
}

func TestMetricsCounters(t *testing.T) {
	eng := New(Config{Stage: "m", Workers: 3},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			time.Sleep(50 * time.Microsecond)
			return n, true, nil
		})
	if _, err := eng.Collect(context.Background(), ints(30)); err != nil {
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
	if _, err := eng.Collect(context.Background(), ints(10)); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.In != prev.In+10 || m.Out != prev.Out+10 {
		t.Fatalf("after a second scan of 10: %+v, before %+v", m, prev)
	}
}

func TestDefaultsResolve(t *testing.T) {
	eng := New(Config{},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) { return n, true, nil })
	if eng.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d, want GOMAXPROCS", eng.workers)
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
	eng := New(Config{Stage: "gated", Workers: 2, Batch: 1},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			entered.Add(1)
			<-gate
			return n, true, nil
		})

	done := make(chan error, 1)
	go func() {
		_, err := eng.Collect(context.Background(), ints(32))
		done <- err
	}()

	// Wait until both workers are parked inside Func and the buffered
	// queue behind them has filled.
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
		t.Fatalf("Collect: %v", err)
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
// every accepted item as consumed via the drain path, so the gauge does
// not stick at a nonzero value after an aborted run.
func TestBacklogDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Config{Stage: "cancelled", Workers: 2, Batch: 1},
		func() struct{} { return struct{}{} },
		func(_ struct{}, n int) (int, bool, error) {
			if n == 3 {
				cancel()
			}
			return n, true, nil
		})
	_, err := eng.Collect(ctx, ints(1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m := eng.Metrics(); m.Backlog() != 0 {
		t.Fatalf("backlog after cancelled run = %d (in=%d consumed=%d), want 0", m.Backlog(), m.In, m.Consumed)
	}
}

// BenchmarkStream measures the engine's own cost on the three shapes
// its callers run: a serve batch (256 domains, Batch 8, 2 workers), a
// watch delta (15.8k 72-byte events, Batch 32, 2 workers, 1 in 30
// kept) and a gateway scatter (2 sub-batches, Batch 1, 16 workers). The
// Func is an FNV hash of one string, so the engine, not the work,
// dominates.
func BenchmarkStream(b *testing.B) {
	type event struct {
		owner, origin string
		serial        uint64
		op            int
		rdata         [4]uint64
	}
	hash := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	domains := make([]string, 256)
	for i := range domains {
		domains[i] = fmt.Sprintf("xn--domain-%04d.example", i)
	}
	events := make([]event, 15800)
	for i := range events {
		events[i] = event{owner: domains[i%len(domains)], origin: "com.", serial: uint64(i)}
	}
	run := func(b *testing.B, eng *Engine[event, uint64, struct{}], items []event) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.Stream(context.Background(), items, func(uint64) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
	none := func() struct{} { return struct{}{} }
	b.Run("serve_batch", func(b *testing.B) {
		items := events[:256]
		run(b, New(Config{Workers: 2, Batch: 8}, none,
			func(_ struct{}, ev event) (uint64, bool, error) { return hash(ev.owner), true, nil }), items)
	})
	b.Run("watch_delta", func(b *testing.B) {
		run(b, New(Config{Workers: 2, Batch: 32}, none,
			func(_ struct{}, ev event) (uint64, bool, error) { return hash(ev.owner), ev.serial%30 == 0, nil }), events)
	})
	b.Run("gateway_scatter", func(b *testing.B) {
		items := events[:2]
		run(b, New(Config{Workers: 16, Batch: 1}, none,
			func(_ struct{}, ev event) (uint64, bool, error) { return hash(ev.owner), true, nil }), items)
	})
}
