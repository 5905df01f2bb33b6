package pipeline

import (
	"context"
	"errors"
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
	out, err := eng.Collect(context.Background(), FromSlice(ints(len(delays))))
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
		out, err := double().Collect(context.Background(), FromSlice(ints(n)))
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
	out, err := eng.Collect(context.Background(), FromSlice(ints(100)))
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
	if _, err := eng.Collect(context.Background(), FromSlice(ints(2))); err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b > 2 {
		t.Fatalf("built %d worker states for 2 items", b)
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
	_, err := eng.Collect(context.Background(), FromSlice(ints(1000)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if m := eng.Metrics(); m.Errors != 1 {
		t.Fatalf("errors = %d, want 1", m.Errors)
	}
}

func TestSinkErrorAborts(t *testing.T) {
	stop := errors.New("stop")
	err := double().Stream(context.Background(), FromSlice(ints(1000)), func(n int) error {
		if n >= 20 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
}

func TestSourceErrorAborts(t *testing.T) {
	srcErr := errors.New("bad source")
	src := Source[int](func(ctx context.Context, emit func(int) error) error {
		for i := 0; i < 5; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return srcErr
	})
	_, err := double().Collect(context.Background(), src)
	if !errors.Is(err, srcErr) {
		t.Fatalf("err = %v, want source error", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := double().Collect(ctx, FromSlice(ints(100)))
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
	_, err := eng.Collect(ctx, FromSlice(ints(100000)))
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
	if _, err := eng.Collect(context.Background(), FromSlice(ints(30))); err != nil {
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
	if _, err := eng.Collect(context.Background(), FromSlice(ints(10))); err != nil {
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
		_, err := eng.Collect(context.Background(), FromSlice(ints(32)))
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
	_, err := eng.Collect(ctx, FromSlice(ints(1000)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m := eng.Metrics(); m.Backlog() != 0 {
		t.Fatalf("backlog after cancelled run = %d (in=%d consumed=%d), want 0", m.Backlog(), m.In, m.Consumed)
	}
}
