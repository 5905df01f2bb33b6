package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/zonefile"
)

// randomCorpus samples a randomized corpus from the shared dataset plus
// adversarial noise (ASCII domains, malformed names Normalize rejects,
// one name of each attack kind), so the equivalence property covers the
// detectors' reject paths too.
func randomCorpus(seed int64, size int) []string {
	rng := rand.New(rand.NewSource(seed))
	noise := []string{
		"example.com", "a.com", "xn---.com", "xn--a.com", "", "..", "bad label.com",
		"plain-ascii.org", "xn--pple-43d.com", "xn--ggle-0nda.com", "apple邮箱.com", "格力空调.net",
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

// sequentialMatches is the reference the classify pass must equal: a
// sequential Normalize → Classifier.Verdict + Type-2 loop.
func sequentialMatches(cls *Classifier, type2 *Type2Detector, corpus []string) corpusMatches {
	var out corpusMatches
	for _, domain := range corpus {
		n, err := Normalize(domain)
		if err != nil {
			continue
		}
		v := cls.Verdict(n)
		if v.Homograph != nil {
			out.homograph = append(out.homograph, *v.Homograph)
		}
		if v.Semantic != nil {
			out.semantic = append(out.semantic, *v.Semantic)
		}
		if m, ok := type2.DetectNormalized(n); ok {
			out.type2 = append(out.type2, m)
		}
	}
	out.sort()
	return out
}

// studyOver is a study whose corpus is the given names, workers wide.
func studyOver(corpus []string, workers int) *Study {
	st := NewStudy(&Dataset{IDNs: corpus})
	st.ScanWorkers = workers
	return st
}

// TestScanEquivalenceProperty is the pass's property: for randomized
// corpora across seeds and sizes — including 0, 1, len < workers and
// malformed names — the study's classify pass is identical to the
// sequential Normalize → Classifier.Verdict + Type-2 loop, for all three
// detectors.
func TestScanEquivalenceProperty(t *testing.T) {
	cls, type2 := NewClassifier(DetectorConfig{TopK: 1000}), NewType2Detector(nil)
	kinds := [3]int{}
	for _, seed := range []int64{1, 2, 42} {
		for _, size := range []int{0, 1, 2, 5, 63, 257} {
			corpus := randomCorpus(seed, size)
			want := sequentialMatches(cls, type2, corpus)
			kinds[0] += len(want.homograph)
			kinds[1] += len(want.semantic)
			kinds[2] += len(want.type2)
			for _, workers := range []int{1, 3, 16} {
				st := studyOver(corpus, workers)
				got, err := st.matchesCtx(context.Background())
				if err != nil {
					t.Fatalf("seed=%d size=%d workers=%d: %v", seed, size, workers, err)
				}
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("seed=%d size=%d workers=%d: pass diverges (%d/%d/%d vs %d/%d/%d matches)",
						seed, size, workers, len(got.homograph), len(got.semantic), len(got.type2),
						len(want.homograph), len(want.semantic), len(want.type2))
				}
				if ms := st.ScanMetrics(); len(ms) != 1 || ms[0].In != uint64(size) {
					t.Errorf("seed=%d size=%d workers=%d: metrics %v", seed, size, workers, ms)
				}
			}
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("corpora matched homograph/semantic/Type-2 %v times; each must occur", kinds)
	}
}

// TestScanHomographEquivalenceProperty checks the pass's homograph list
// against the standalone sequential homograph detector, over randomized
// corpora across seeds, sizes and fan-outs.
func TestScanHomographEquivalenceProperty(t *testing.T) {
	cls, type2 := NewClassifier(DetectorConfig{TopK: 1000}), NewType2Detector(nil)
	seq := NewHomographDetector(1000)
	matched := 0
	for _, seed := range []int64{1, 2, 42} {
		for _, size := range []int{0, 1, 2, 5, 63, 257} {
			corpus := randomCorpus(seed, size)
			want := seq.Detect(corpus)
			matched += len(want)
			for _, workers := range []int{1, 3, 4, 16} {
				got, m, err := classifyCorpus(context.Background(), cls, type2, corpus, workers)
				if err != nil {
					t.Fatalf("seed=%d size=%d workers=%d: %v", seed, size, workers, err)
				}
				if !reflect.DeepEqual(got.homograph, want) {
					t.Fatalf("seed=%d size=%d workers=%d: homograph matches diverge (%d vs %d)",
						seed, size, workers, len(got.homograph), len(want))
				}
				if m.In != uint64(size) {
					t.Errorf("seed=%d size=%d workers=%d: metrics in=%d", seed, size, workers, m.In)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no corpus held a homograph match")
	}
}

// TestScanSemanticEquivalenceProperty checks the pass's semantic list
// against the standalone sequential Type-1 detector, up to the full
// seed corpus.
func TestScanSemanticEquivalenceProperty(t *testing.T) {
	cls, type2 := NewClassifier(DetectorConfig{TopK: 1000}), NewType2Detector(nil)
	seq := newSemanticDetector(brands.TopK(1000))
	matched := 0
	for _, seed := range []int64{3, 7} {
		for _, size := range []int{0, 1, 4, 129, len(testDS.IDNs)} {
			corpus := randomCorpus(seed, size)
			if size == len(testDS.IDNs) {
				corpus = testDS.IDNs
			}
			want := seq.Detect(corpus)
			matched += len(want)
			for _, workers := range []int{1, 2, 8} {
				got, _, err := classifyCorpus(context.Background(), cls, type2, corpus, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.semantic, want) {
					t.Fatalf("seed=%d size=%d workers=%d: semantic matches diverge (%d vs %d)",
						seed, size, workers, len(got.semantic), len(want))
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no corpus held a semantic match")
	}
}

// TestScanFullCorpus pins the full seed-corpus equivalence at a
// realistic fan-out.
func TestScanFullCorpus(t *testing.T) {
	st := NewStudy(testDS)
	want := sequentialMatches(st.cls, st.type2, testDS.IDNs)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got, m, err := classifyCorpus(context.Background(), st.cls, st.type2, testDS.IDNs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("workers=%d: full-corpus pass diverges", workers)
		}
		if m.In != uint64(len(testDS.IDNs)) || m.Out != m.In {
			t.Errorf("workers=%d: metrics in=%d out=%d, want %d in and out",
				workers, m.In, m.Out, len(testDS.IDNs))
		}
	}
}

// TestScanWorkerCountEdge is the regression for the chunked pool the
// engine replaced, whose shard math (chunk = ceil(len/workers)) could
// leave workers without a shard and degraded silently when
// workers > len(domains). The streaming engine hands out items one at a
// time, so every (len, workers) shape must agree with the sequential
// loop.
func TestScanWorkerCountEdge(t *testing.T) {
	shapes := []struct{ size, workers int }{
		{8, 6},  // old math: chunk 2 → 4 shards for 6 workers
		{5, 4},  // chunk 2 → 3 shards for 4 workers
		{9, 8},  // chunk 2 → 5 shards for 8 workers
		{1, 8},  // workers > len
		{3, 16}, // workers >> len
		{0, 4},  // empty corpus
		{3, 0},  // workers <= 0 selects GOMAXPROCS
	}
	cls, type2 := NewClassifier(DetectorConfig{TopK: 100}), NewType2Detector(nil)
	for _, sh := range shapes {
		corpus := randomCorpus(11, sh.size)
		want := sequentialMatches(cls, type2, corpus)
		got, _, err := classifyCorpus(context.Background(), cls, type2, corpus, sh.workers)
		if err != nil {
			t.Fatalf("size=%d workers=%d: %v", sh.size, sh.workers, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("size=%d workers=%d: pass diverges", sh.size, sh.workers)
		}
	}
}

// TestScanCancellationDrains cancels mid-corpus and asserts the pass
// returns ctx.Err() and leaks no goroutines: directly, over a corpus so
// large the pass cannot win the race by finishing, and through the
// study's memo, which must stay unset so the next call runs the whole
// pass.
func TestScanCancellationDrains(t *testing.T) {
	var huge []string
	for range 100 {
		huge = append(huge, testDS.IDNs...)
	}
	st := NewStudy(testDS)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := classifyCorpus(ctx, st.cls, st.type2, huge, 4)
		errc <- err
	}()
	for runtime.NumGoroutine() <= before+4 && len(errc) == 0 {
		runtime.Gosched() // until the pass's workers run
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoLeakedGoroutines(t, before)

	// Through the memo: a corpus of ten copies of the test IDNs takes
	// far longer than it takes to see the pass's workers start.
	var corpus []string
	for range 10 {
		corpus = append(corpus, testDS.IDNs...)
	}
	st = studyOver(corpus, 2)
	before = runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	errc = make(chan error, 1)
	go func() {
		_, err := st.matchesCtx(ctx)
		errc <- err
	}()
	for runtime.NumGoroutine() <= before+2 && len(errc) == 0 {
		runtime.Gosched() // until the pass's workers run
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("study pass cancelled mid-corpus: err = %v, want context.Canceled", err)
	}
	assertNoLeakedGoroutines(t, before)
	assertMemoUnpoisoned(t, st, corpus)
}

// TestScanPreCancelled covers the pass and the study's memo with an
// already-cancelled context.
func TestScanPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := studyOver(testDS.IDNs, 4)
	if _, _, err := classifyCorpus(ctx, st.cls, st.type2, testDS.IDNs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pass err = %v, want context.Canceled", err)
	}
	if _, err := st.matchesCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("study err = %v, want context.Canceled", err)
	}
	assertNoLeakedGoroutines(t, before)
	assertMemoUnpoisoned(t, st, testDS.IDNs)
}

// assertMemoUnpoisoned checks that a study whose pass was cancelled
// cached nothing: its next pass runs in full, is the only one recorded,
// and equals the sequential loop.
func assertMemoUnpoisoned(t *testing.T, st *Study, corpus []string) {
	t.Helper()
	if len(st.ScanMetrics()) != 0 {
		t.Fatalf("a cancelled pass recorded metrics: %v", st.ScanMetrics())
	}
	got, err := st.matchesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := sequentialMatches(st.cls, st.type2, corpus); !reflect.DeepEqual(*got, want) {
		t.Fatal("the pass after a cancelled one diverges from the sequential loop")
	}
	if ms := st.ScanMetrics(); len(ms) != 1 || ms[0].In != uint64(len(corpus)) {
		t.Fatalf("the pass after a cancelled one recorded %v", ms)
	}
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
		want := zonefile.ScanStats{Origin: zone.Origin, SLDCount: len(idns) + len(others), IDNCount: len(idns)}
		var emitted []string
		got, err := zonefile.ScanStream(context.Background(), &buf, func(d string) error {
			emitted = append(emitted, d)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: stream scan: %v", origin, err)
		}
		sort.Strings(emitted)
		if got != want || !reflect.DeepEqual(emitted, idns) {
			t.Errorf("%s: stream scan diverges: %d/%d SLDs, %d/%d IDNs, %d/%d emitted",
				origin, got.SLDCount, want.SLDCount, got.IDNCount, want.IDNCount, len(emitted), len(idns))
		}
	}
}

// TestStudyScanMetrics asserts the report path records one metrics
// snapshot for its one classify pass, shared by the tables that read
// it, and that the counters are coherent. Table XIII also reads its
// matches' index rows, so the index pass is the other snapshot.
func TestStudyScanMetrics(t *testing.T) {
	st := NewStudy(testDS)
	st.ScanWorkers = 2
	var sb bytes.Buffer
	for _, render := range []func(io.Writer) error{st.ReportTable13, st.ReportTable14, st.ReportTable10} {
		if err := render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	ms := st.ScanMetrics()
	if len(ms) != 2 || ms[0].Stage != "classify" || ms[1].Stage != "index" {
		t.Fatalf("recorded passes %v, want one classify pass, then the index pass", ms)
	}
	m := ms[0]
	if m.In != uint64(len(testDS.IDNs)) || m.Out != m.In {
		t.Errorf("in = %d, out = %d, want %d each", m.In, m.Out, len(testDS.IDNs))
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
	if m.Elapsed <= 0 {
		t.Errorf("elapsed = %v", m.Elapsed)
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
// every worker's clone: a pass on a top-100 classifier names only
// top-100 brands and equals the sequential top-100 detector, although
// the top-1000 detector names deeper brands on the same corpus. (This
// and the next test keep the ids they had when they ran through the
// deleted DetectParallel shim.)
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
	cls := NewClassifier(DetectorConfig{TopK: 100})
	for _, workers := range []int{1, 4} {
		got, _, err := classifyCorpus(context.Background(), cls, NewType2Detector(nil), testDS.IDNs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.homograph, want) {
			t.Fatalf("workers=%d: top-100 pass differs from the sequential detector (%d vs %d)", workers, len(got.homograph), len(want))
		}
		for _, m := range got.homograph {
			if b, ok := brands.Lookup(m.Brand); !ok || b.Rank > 100 {
				t.Errorf("workers=%d: TopK not applied: %v", workers, m)
			}
		}
	}
}

// TestDetectParallelUsesIndex pins the DetectorConfig.Index routing: the
// pass must produce the same matches as a sequential indexed detector
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
	cls := NewClassifier(DetectorConfig{Index: ix})
	for _, workers := range []int{1, 4} {
		got, _, err := classifyCorpus(context.Background(), cls, NewType2Detector(nil), corpus, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got.homograph) {
			t.Errorf("workers=%d: indexed pass result differs (%d vs %d matches)",
				workers, len(got.homograph), len(seq))
		}
	}
	after, _ := ix.Stats()
	if after == before {
		t.Fatalf("the pass never consulted the index (lookups stuck at %d)", before)
	}
}
