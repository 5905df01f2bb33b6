package core

import (
	"bytes"
	"context"
	"reflect"
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
		if err := st.RunContext(context.Background(), &sb); err != nil {
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
	infos := ix.infos
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
	if err := st.RunContext(context.Background(), &full); err != nil {
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

// TestAssembleAndResultsAtAnyWidth: the concurrent Assemble and Results
// give, on one core and on eight, the stores and the JSON bytes a
// sequential build gives — every builder is sequential inside and writes
// only its own store, every aggregate is memoized before the struct is
// assembled. Under -race this is also the data-race check of both.
func TestAssembleAndResultsAtAnyWidth(t *testing.T) {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 400})
	build := func(procs int) (*Dataset, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ds, err := Assemble(reg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := NewStudy(ds).WriteJSON(&buf); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return ds, buf.Bytes()
	}
	one, oneJSON := build(1)
	if len(one.IDNs) == 0 || len(one.NonIDNs) == 0 {
		t.Fatalf("degenerate dataset: %d IDNs, %d non-IDNs", len(one.IDNs), len(one.NonIDNs))
	}
	eight, eightJSON := build(8)
	if !bytes.Equal(oneJSON, eightJSON) {
		t.Errorf("JSON differs between GOMAXPROCS=1 (%d bytes) and GOMAXPROCS=8 (%d bytes)", len(oneJSON), len(eightJSON))
	}
	for _, f := range []struct {
		name     string
		one, all any
	}{
		{"IDNs", one.IDNs, eight.IDNs}, {"NonIDNs", one.NonIDNs, eight.NonIDNs}, {"PerTLD", one.PerTLD, eight.PerTLD},
		{"WHOIS", one.WHOIS, eight.WHOIS}, {"PDNS", one.PDNS, eight.PDNS},
		{"Blacklists", one.Blacklists, eight.Blacklists},
	} {
		if !reflect.DeepEqual(f.one, f.all) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=8", f.name)
		}
	}
	// crypto/ecdsa does not draw keys and signatures deterministically
	// from its reader, so certificate bytes differ from run to run at any
	// width; what the CA decides — who is issued which certificate, in
	// which order — is exact.
	deployed := 0
	for _, d := range append(append([]string(nil), one.IDNs...), one.NonIDNs...) {
		a, okA := one.Certs.Get(d)
		b, okB := eight.Certs.Get(d)
		if okA != okB {
			t.Fatalf("%s: certificate deployed at one width only", d)
		}
		if okA {
			deployed++
		}
		if okA && (a.SerialNumber.Cmp(b.SerialNumber) != 0 || a.Subject.CommonName != b.Subject.CommonName ||
			!a.NotAfter.Equal(b.NotAfter) || a.Issuer.CommonName != b.Issuer.CommonName) {
			t.Fatalf("%s: serial %v cn %q vs serial %v cn %q", d, a.SerialNumber, a.Subject.CommonName, b.SerialNumber, b.Subject.CommonName)
		}
	}
	if deployed == 0 {
		t.Fatal("degenerate dataset: no certificates deployed")
	}
}

// TestAssembleCertError: a certificate the CA cannot issue (a name that
// is not an IA5 string) fails Assemble with the error it always had,
// while the other builders are running, and leaves no goroutine behind.
func TestAssembleCertError(t *testing.T) {
	reg := zonegen.Generate(zonegen.Config{Seed: 7, Scale: 2000})
	broken := -1
	for i := range reg.Domains {
		if reg.Domains[i].Cert == zonegen.CertValid {
			broken = i
			break
		}
	}
	if broken < 0 {
		t.Fatal("the universe deploys no valid certificate")
	}
	reg.Domains[broken].ACE = "bücher.com"
	before := runtime.NumGoroutine()
	ds, err := Assemble(reg)
	if ds != nil || err == nil || !strings.HasPrefix(err.Error(), "core: certificates: zonegen: issue valid cert for bücher.com: ") {
		t.Fatalf("Assemble = %v, %v; want a core: certificates: error", ds, err)
	}
	assertNoLeakedGoroutines(t, before)
}
