package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/zonefile"
)

// randomCorpus samples a randomized corpus from the shared dataset plus
// adversarial noise (ASCII domains, malformed ACE, empty-ish labels), so
// the equivalence property covers the detectors' reject paths too.
func randomCorpus(seed int64, size int) []string {
	rng := rand.New(rand.NewSource(seed))
	noise := []string{
		"example.com", "a.com", "xn---.com", "xn--a.com",
		"plain-ascii.org", "xn--pple-43d.com", "xn--ggle-0nda.com",
	}
	out := make([]string, size)
	for i := range out {
		if rng.Intn(5) == 0 {
			out[i] = noise[rng.Intn(len(noise))]
		} else {
			out[i] = testDS.IDNs[rng.Intn(len(testDS.IDNs))]
		}
	}
	return out
}

// TestScanHomographEquivalenceProperty is the tentpole property: for
// randomized corpora across seeds and sizes — including 0, 1 and
// len < workers — the pipeline scan is byte-identical to the sequential
// Detect.
func TestScanHomographEquivalenceProperty(t *testing.T) {
	cfg := DetectorConfig{TopK: 1000}
	seq := NewHomographDetector(cfg.TopK)
	for _, seed := range []int64{1, 2, 42} {
		for _, size := range []int{0, 1, 2, 5, 63, 257} {
			corpus := randomCorpus(seed, size)
			want := seq.Detect(corpus)
			for _, workers := range []int{1, 3, 4, 16} {
				got, m, err := ScanHomograph(context.Background(), cfg, corpus, workers)
				if err != nil {
					t.Fatalf("seed=%d size=%d workers=%d: %v", seed, size, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d size=%d workers=%d: pipeline diverges (%d vs %d matches)",
						seed, size, workers, len(got), len(want))
				}
				if m.In != uint64(size) {
					t.Errorf("seed=%d size=%d workers=%d: metrics in=%d", seed, size, workers, m.In)
				}
			}
		}
	}
}

// TestScanHomographFullCorpus pins the full seed-corpus equivalence at a
// realistic fan-out.
func TestScanHomographFullCorpus(t *testing.T) {
	cfg := DetectorConfig{TopK: 1000}
	want := NewHomographDetector(cfg.TopK).Detect(testDS.IDNs)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got, m, err := ScanHomograph(context.Background(), cfg, testDS.IDNs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: full-corpus scan diverges", workers)
		}
		if m.In != uint64(len(testDS.IDNs)) || m.Out != uint64(len(want)) {
			t.Errorf("workers=%d: metrics in=%d out=%d, want %d/%d",
				workers, m.In, m.Out, len(testDS.IDNs), len(want))
		}
	}
}

// TestScanSemanticEquivalenceProperty mirrors the homograph property for
// the Type-1 detector.
func TestScanSemanticEquivalenceProperty(t *testing.T) {
	seq := NewSemanticDetector(1000)
	for _, seed := range []int64{3, 7} {
		for _, size := range []int{0, 1, 4, 129, len(testDS.IDNs)} {
			var corpus []string
			if size == len(testDS.IDNs) {
				corpus = testDS.IDNs
			} else {
				corpus = randomCorpus(seed, size)
			}
			want := seq.Detect(corpus)
			for _, workers := range []int{1, 2, 8} {
				got, _, err := ScanSemantic(context.Background(), 1000, corpus, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d size=%d workers=%d: semantic scan diverges", seed, size, workers)
				}
			}
		}
	}
}

// TestScanWorkerCountEdge is the regression for the chunked pool the
// engine replaced, whose shard math (chunk = ceil(len/workers)) could
// leave workers without a shard and degraded silently when
// workers > len(domains). The streaming engine hands out items one at a
// time, so every (len, workers) shape must agree with the sequential
// scan.
func TestScanWorkerCountEdge(t *testing.T) {
	cfg := DetectorConfig{TopK: 100}
	shapes := []struct{ size, workers int }{
		{8, 6},  // old math: chunk 2 → 4 shards for 6 workers
		{5, 4},  // chunk 2 → 3 shards for 4 workers
		{9, 8},  // chunk 2 → 5 shards for 8 workers
		{1, 8},  // workers > len
		{3, 16}, // workers >> len
		{0, 4},  // empty corpus
		{3, 0},  // workers <= 0 selects GOMAXPROCS
	}
	seq := NewHomographDetector(cfg.TopK)
	for _, sh := range shapes {
		corpus := randomCorpus(11, sh.size)
		want := seq.Detect(corpus)
		got, _, err := ScanHomograph(context.Background(), cfg, corpus, sh.workers)
		if err != nil {
			t.Fatalf("size=%d workers=%d: %v", sh.size, sh.workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("size=%d workers=%d: scan diverges", sh.size, sh.workers)
		}
	}
}

// TestScanCancellationDrains cancels deterministically mid-scan (from an
// unbounded source, so the scan cannot win the race by finishing) and
// asserts the engine returns ctx.Err() and leaks no goroutines.
func TestScanCancellationDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewHomographEngine(DetectorConfig{TopK: 100}, 4)
	emitted := 0
	src := func(ctx context.Context, emit func(string) error) error {
		for i := 0; ; i++ {
			if i == 500 {
				cancel() // mid-corpus, deterministic
			}
			if err := emit(testDS.IDNs[i%len(testDS.IDNs)]); err != nil {
				return err
			}
			emitted++
		}
	}
	err := eng.Stream(ctx, src, func(HomographMatch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted < 500 {
		t.Fatalf("source stopped early at %d items", emitted)
	}
	assertNoLeakedGoroutines(t, before)
}

// TestScanPreCancelled covers the public scan entry points with an
// already-cancelled context.
func TestScanPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ScanHomograph(ctx, DetectorConfig{TopK: 100}, testDS.IDNs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("homograph err = %v, want context.Canceled", err)
	}
	if _, _, err := ScanSemantic(ctx, 100, testDS.IDNs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("semantic err = %v, want context.Canceled", err)
	}
	assertNoLeakedGoroutines(t, before)
}

// TestZoneScanStreamMatchesMaterialized cross-checks the streaming zone
// scan against the materialized one over every zone of the generated
// universe — the ingestion half of the pipeline equivalence story.
func TestZoneScanStreamMatchesMaterialized(t *testing.T) {
	for origin, zone := range testDS.Registry.BuildZones() {
		var buf bytes.Buffer
		if err := zone.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", origin, err)
		}
		idns, others := zone.Partition()
		want := zonefile.ScanStats{Origin: zone.Origin, SLDCount: len(idns) + len(others), IDNs: idns}
		got, err := zonefile.ScanStream(context.Background(), &buf, nil)
		if err != nil {
			t.Fatalf("%s: stream scan: %v", origin, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream scan diverges: %d/%d SLDs, %d/%d IDNs",
				origin, got.SLDCount, want.SLDCount, len(got.IDNs), len(want.IDNs))
		}
	}
}

// TestStudyScanMetrics asserts the report path records one metrics
// snapshot per pipelined scan and that the counters are coherent.
func TestStudyScanMetrics(t *testing.T) {
	st := NewStudy(testDS)
	st.ScanWorkers = 2
	var sb bytes.Buffer
	if err := st.ReportTable13(&sb); err != nil {
		t.Fatal(err)
	}
	if err := st.ReportTable14(&sb); err != nil {
		t.Fatal(err)
	}
	ms := st.ScanMetrics()
	if len(ms) != 2 {
		t.Fatalf("recorded %d scans, want 2", len(ms))
	}
	if ms[0].Stage != "homograph" || ms[1].Stage != "semantic" {
		t.Fatalf("stages = %q, %q", ms[0].Stage, ms[1].Stage)
	}
	for _, m := range ms {
		if m.In != uint64(len(testDS.IDNs)) {
			t.Errorf("stage %s: in = %d, want %d", m.Stage, m.In, len(testDS.IDNs))
		}
		if m.Workers != 2 {
			t.Errorf("stage %s: workers = %d, want 2", m.Stage, m.Workers)
		}
		if m.Elapsed <= 0 {
			t.Errorf("stage %s: elapsed = %v", m.Stage, m.Elapsed)
		}
	}
}

// assertNoLeakedGoroutines retries until the goroutine count settles at
// or below the baseline.
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

// TestDetectParallelWithOptions pins that DetectorConfig.TopK reaches
// every worker's detector: a top-100 scan names only top-100 brands and
// equals the sequential top-100 detector, although the top-1000 scan of
// the same corpus names deeper brands. (This and the next test keep the
// ids they had when they ran through the deleted DetectParallel shim.)
func TestDetectParallelWithOptions(t *testing.T) {
	deep := 0
	for _, m := range NewHomographDetector(1000).Detect(testDS.IDNs) {
		if b, _ := brands.Lookup(m.Brand); b.Rank > 100 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no top-1000 match beyond rank 100; the corpus cannot tell the depths apart")
	}
	want := NewHomographDetector(100).Detect(testDS.IDNs)
	for _, workers := range []int{1, 4} {
		par, _, err := ScanHomograph(context.Background(), DetectorConfig{TopK: 100}, testDS.IDNs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, want) {
			t.Fatalf("workers=%d: top-100 scan differs from the sequential detector (%d vs %d)", workers, len(par), len(want))
		}
		for _, m := range par {
			if b, ok := brands.Lookup(m.Brand); !ok || b.Rank > 100 {
				t.Errorf("workers=%d: TopK not applied: %v", workers, m)
			}
		}
	}
}

// TestDetectParallelUsesIndex pins the DetectorConfig.Index routing: the
// scan must produce the same matches as a sequential indexed detector
// AND actually consult the index (an earlier wiring bug dropped the
// field on the floor, silently falling back to the sweep on every
// worker — correct output, none of the index's speedup, and no test
// noticed).
func TestDetectParallelUsesIndex(t *testing.T) {
	list := brands.TopK(1000)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corpus := testDS.IDNs
	seq := NewHomographDetector(0, WithIndex(ix)).Detect(corpus)
	before, _ := ix.Stats()
	cfg := DetectorConfig{Index: ix}
	for _, workers := range []int{1, 4} {
		par, _, err := ScanHomograph(context.Background(), cfg, corpus, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: indexed scan result differs (%d vs %d matches)",
				workers, len(par), len(seq))
		}
	}
	after, _ := ix.Stats()
	if after == before {
		t.Fatalf("ScanHomograph never consulted the index (lookups stuck at %d)", before)
	}
}
