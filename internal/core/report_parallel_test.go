package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"idnlab/internal/zonegen"
)

// freshStudyDS assembles an independent small dataset so each Study in
// the determinism tests owns its corpus index and scan caches (the
// package-level testDS would share memoized state across worker counts,
// hiding scheduling bugs).
func freshStudyDS(t testing.TB) *Dataset {
	t.Helper()
	ds, err := Assemble(zonegen.Generate(zonegen.Config{Seed: 7, Scale: 2000}))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRunParallelByteIdentical is the determinism gate of the parallel
// report scheduler: the full report rendered with one worker must equal,
// byte for byte, the report rendered with many workers (the golden test
// separately pins workers=default to the sequential renderer's bytes).
// Run under -race this also exercises the concurrent section paths.
func TestRunParallelByteIdentical(t *testing.T) {
	render := func(workers int) string {
		st := NewStudy(freshStudyDS(t))
		st.ScanWorkers = workers
		var sb strings.Builder
		if err := st.Run(&sb); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if timings := st.SectionTimings(); len(timings) != len(st.sections()) {
			t.Fatalf("workers=%d: %d section timings, want %d", workers, len(timings), len(st.sections()))
		}
		return sb.String()
	}

	sequential := render(1)
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); got != sequential {
			gotLines := strings.Split(got, "\n")
			wantLines := strings.Split(sequential, "\n")
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("workers=%d diverges from workers=1 at line %d:\n got: %q\nwant: %q",
						workers, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("workers=%d: report length differs: %d vs %d bytes", workers, len(got), len(sequential))
		}
	}
}

// TestRunContextCancelled proves the scheduler honors cancellation and
// leaks no goroutines: a pre-cancelled context must surface ctx.Err()
// without rendering, a run cancelled mid-flight must return with every
// pipeline goroutine drained, and a cancelled Study must stay usable (no
// cache poisoning).
func TestRunContextCancelled(t *testing.T) {
	ds := freshStudyDS(t)
	base := runtime.NumGoroutine()

	// Pre-cancelled: no output at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewStudy(ds)
	st.ScanWorkers = 4
	var sb strings.Builder
	if err := st.RunContext(ctx, &sb); err != context.Canceled {
		t.Fatalf("pre-cancelled RunContext error = %v, want context.Canceled", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("pre-cancelled RunContext wrote %d bytes", sb.Len())
	}

	// Mid-flight: cancel shortly after the run starts; the call must
	// observe the cancellation (or finish first on a fast machine).
	st2 := NewStudy(ds)
	st2.ScanWorkers = 4
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	var sb2 strings.Builder
	err := st2.RunContext(ctx2, &sb2)
	cancel2()
	if err != nil && err != context.Canceled {
		t.Fatalf("mid-flight RunContext error = %v", err)
	}
	if err == nil {
		t.Log("run finished before cancellation; retry path not exercised")
	}

	// A cancelled run must not poison the memoized scans: the same Study
	// must be able to complete afterwards.
	var sb3 strings.Builder
	if err := st2.RunContext(context.Background(), &sb3); err != nil {
		t.Fatalf("RunContext retry after cancellation: %v", err)
	}
	if sb3.Len() == 0 {
		t.Fatal("retry rendered nothing")
	}

	// Goroutine accounting: everything the runs spawned must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d baseline\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIndexMemoization pins the memoization the corpus index introduces:
// repeated calls to the aggregate accessors must return the same cached
// backing data instead of recomputing, and the index build must align
// with Dataset.IDNs.
func TestIndexMemoization(t *testing.T) {
	ix := testDS.Index()
	infos := ix.Infos()
	if len(infos) != len(testDS.IDNs) {
		t.Fatalf("index has %d infos for %d IDNs", len(infos), len(testDS.IDNs))
	}
	for i := range infos {
		if infos[i].Domain != testDS.IDNs[i] {
			t.Fatalf("info %d misaligned: %q vs %q", i, infos[i].Domain, testDS.IDNs[i])
		}
	}
	if ix.IDNWHOIS() != ix.IDNWHOIS() {
		t.Error("IDNWHOIS not memoized")
	}
	m1, m2 := ix.Malicious(), ix.Malicious()
	if len(m1) > 0 && &m1[0] != &m2[0] {
		t.Error("Malicious not memoized")
	}
	p1 := ix.Partition(PopulationIDN, "com")
	p2 := ix.Partition(PopulationIDN, "com")
	if len(p1) > 0 && &p1[0] != &p2[0] {
		t.Error("Partition not memoized")
	}
	// Partition must agree with the pre-index filter semantics.
	want := filterTLD(testDS.IDNs, "com")
	if len(p1) != len(want) {
		t.Fatalf("Partition(com) = %d domains, filterTLD = %d", len(p1), len(want))
	}
	for i := range want {
		if p1[i] != want[i] {
			t.Fatalf("Partition(com)[%d] = %q, want %q", i, p1[i], want[i])
		}
	}
	s1 := ix.Series(true, PopulationIDN, "com")
	s2 := ix.Series(true, PopulationIDN, "com")
	if len(s1) > 0 && &s1[0] != &s2[0] {
		t.Error("Series not memoized")
	}
	u1 := testDS.UsageSample(PopulationIDN, 50, 1)
	u2 := testDS.UsageSample(PopulationIDN, 50, 1)
	if u1.Total() != u2.Total() {
		t.Error("UsageSample not deterministic across memoized calls")
	}
}

// TestEverySectionSelectable pins the one registry: what RunContext
// renders is, section for section and in order, what Section(key)
// renders for the keys SectionKeys lists — so `idnreport -only` can
// select every experiment of the report (the command's own name map
// used to miss Taxonomy) — and the unknown-key error is the same bytes
// every time, keys in report order.
func TestEverySectionSelectable(t *testing.T) {
	st := NewStudy(freshStudyDS(t))
	var full strings.Builder
	if err := st.Run(&full); err != nil {
		t.Fatal(err)
	}
	keys := st.SectionKeys()
	if n := len(st.SectionTimings()); n != len(keys) {
		t.Fatalf("report rendered %d sections, %d are selectable", n, len(keys))
	}
	var joined strings.Builder
	for _, key := range keys {
		section, err := st.Section(strings.ToUpper(key)) // selection is case-insensitive
		if err != nil {
			t.Fatalf("section %q of the report is not selectable: %v", key, err)
		}
		if err := section(&joined); err != nil {
			t.Fatalf("section %q: %v", key, err)
		}
		joined.WriteByte('\n')
	}
	if joined.String() != full.String() {
		t.Fatal("the selectable sections, in order, are not the full report")
	}

	_, err := st.Section("table99")
	want := `unknown experiment "table99" (available: ` + strings.Join(keys, ", ") + ")"
	if err == nil || err.Error() != want {
		t.Fatalf("unknown key error = %v, want %s", err, want)
	}
}
