package watch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"idnlab/internal/zonegen"
)

// testFixture builds the full streaming stack over the real brand
// catalog: an index-backed detector, a subscription table covering
// every brand, and an engine.
func testFixture(t testing.TB, topK, workers int) (*Engine, *SubTable) {
	t.Helper()
	det, list := testCatalogDetector(t, topK)
	subs := NewSubTable(len(list))
	for i := range list {
		subs.Subscribe(uint32(i), uint64(1000+i))
		if i%3 == 0 {
			subs.Subscribe(uint32(i), uint64(5000+i))
		}
	}
	subs.Compile()
	eng, err := NewEngine(det, subs, EngineConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng, subs
}

// writeDeltaDir renders `days` of deltas for a seed into dir and
// returns the generator's ground-truth records per day.
func writeDeltaDir(t testing.TB, dir string, seed uint64, cfg zonegen.DeltaConfig, days int) []*zonegen.DayDelta {
	t.Helper()
	reg := zonegen.Generate(zonegen.Config{Seed: seed, Scale: 800})
	gen := reg.DeltaStream(cfg)
	var out []*zonegen.DayDelta
	for i := 0; i < days; i++ {
		d := gen.Next()
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, zonegen.DeltaFileName(d.Serial)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

var attackCfg = zonegen.DeltaConfig{
	AddsPerDay: 150, DropsPerDay: 30, NSChangesPerDay: 20,
	AttackShare: 0.3, AttackTopK: 60,
}

// TestEngineEndToEnd: every homograph attack registration against an
// indexed brand must surface as an alert carrying that brand, and the
// alert stream must be deterministic across runs.
func TestEngineEndToEnd(t *testing.T) {
	eng, _ := testFixture(t, 100, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 31, attackCfg, 1)
	gt := days[0]

	data, err := os.ReadFile(filepath.Join(dir, zonegen.DeltaFileName(gt.Serial)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	collect := func() []Alert {
		var alerts []Alert
		if err := eng.ProcessDelta(context.Background(), d, func(a Alert) error {
			alerts = append(alerts, a)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return alerts
	}
	run1 := collect()
	run2 := collect()
	if len(run1) != len(run2) {
		t.Fatalf("non-deterministic: %d vs %d alerts", len(run1), len(run2))
	}
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("alert %d differs between runs:\n%+v\n%+v", i, run1[i], run2[i])
		}
	}

	byDomain := make(map[string]Alert, len(run1))
	for _, a := range run1 {
		byDomain[a.Domain] = a
		if a.Serial != gt.Serial || a.Subs < 1 || a.SSIM < 0.8 || a.Brand == "" {
			t.Errorf("malformed alert %+v", a)
		}
	}
	// Ground truth: pixel-identical homograph adds against the top-60
	// catalog must all be caught (the matcher is bit-identical to the
	// sweep, and identical variants score SSIM 1.0).
	attacks := 0
	for _, z := range gt.Zones {
		for _, rec := range z.Records {
			if rec.Op != zonegen.DeltaAdd || rec.Attack != zonegen.AttackHomograph {
				continue
			}
			attacks++
			a, ok := byDomain[rec.Owner+"."+z.Origin]
			if !ok {
				t.Errorf("attack add %s.%s (target %s) produced no alert", rec.Owner, z.Origin, rec.TargetBrand)
				continue
			}
			if a.Brand != rec.TargetBrand {
				// A pixel-identical variant can legitimately resolve to
				// a same-label brand ranked earlier; require the label
				// to agree instead of the exact domain.
				if strings.SplitN(a.Brand, ".", 2)[0] != strings.SplitN(rec.TargetBrand, ".", 2)[0] {
					t.Errorf("alert for %s names brand %s, attack targeted %s", a.Domain, a.Brand, rec.TargetBrand)
				}
			}
		}
	}
	if attacks == 0 {
		t.Fatal("generator produced no homograph attacks; test is vacuous")
	}
	if len(run1) < attacks {
		t.Errorf("%d alerts for %d attacks", len(run1), attacks)
	}
}

// TestNewEngineRefusesUncompiledTable: an engine reads a frozen
// table without a lock, so a table still open to Subscribe is refused.
func TestNewEngineRefusesUncompiledTable(t *testing.T) {
	det, list := testCatalogDetector(t, 20)
	subs := NewSubTable(len(list))
	subs.Subscribe(0, 1)
	if eng, err := NewEngine(det, subs, EngineConfig{}); err == nil || eng != nil {
		t.Fatalf("NewEngine over an uncompiled table: %v, %v; want a refusal", eng, err)
	}
}

// TestEngineUnsubscribedBrandsSilent: matches against brands nobody
// watches must be filtered, and the suppression counted.
func TestEngineUnsubscribedBrandsSilent(t *testing.T) {
	det, list := testCatalogDetector(t, 60)
	subs := NewSubTable(len(list)) // nobody subscribed
	subs.Compile()
	eng, err := NewEngine(det, subs, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 31, attackCfg, 1)
	data, _ := os.ReadFile(filepath.Join(dir, zonegen.DeltaFileName(days[0].Serial)))
	d, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	if err := eng.ProcessDelta(context.Background(), d, func(a Alert) error {
		alerts = append(alerts, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("%d alerts with zero subscribers", len(alerts))
	}
	matched, unwatched, _ := eng.Counters()
	if matched == 0 || unwatched != matched {
		t.Fatalf("counters matched=%d unwatched=%d; want all matches suppressed", matched, unwatched)
	}
}

// TestEngineCancellation: cancelling mid-delta must abort promptly with
// ctx.Err() and leak no goroutines.
func TestEngineCancellation(t *testing.T) {
	eng, _ := testFixture(t, 60, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 77, zonegen.DeltaConfig{AddsPerDay: 4000, AttackShare: 0.5, AttackTopK: 60}, 1)
	data, _ := os.ReadFile(filepath.Join(dir, zonegen.DeltaFileName(days[0].Serial)))
	d, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = eng.ProcessDelta(ctx, d, func(a Alert) error {
		seen++
		if seen == 3 {
			cancel()
		}
		return nil
	})
	cancel()
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Goroutines must drain. Allow scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Backlog gauge returns to zero after the aborted run.
	if m := eng.Metrics(); m.Backlog() != 0 {
		t.Fatalf("backlog %d after cancelled run", m.Backlog())
	}
	// The engine stays usable after cancellation.
	var alerts []Alert
	if err := eng.ProcessDelta(context.Background(), d, func(a Alert) error {
		alerts = append(alerts, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts on reuse after cancellation")
	}
}
