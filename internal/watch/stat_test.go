package watch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/core"
	"idnlab/internal/feat"
	"idnlab/internal/zonegen"
)

// statEngine builds the watch stack with the statistical prefilter
// attached to the detector — the configuration `idnwatch -stat` runs.
func statEngine(t *testing.T, topK int, m *feat.Model) *Engine {
	t.Helper()
	list := brands.TopK(topK)
	ix, err := candidx.Build(list, candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewHomographDetector(0, core.WithIndex(ix), core.WithStatModel(m))
	subs := NewSubTable(len(list))
	for i := range list {
		subs.Subscribe(uint32(i), uint64(1000+i))
	}
	subs.Compile()
	eng, err := NewEngine(det, subs, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineStatGate: with the learned prefilter on, homograph attack
// adds must still alert (the gate may not eat recall on the exact
// population it was trained against), and the pass/shed counters must
// account for every IDN add that reached the gate.
func TestEngineStatGate(t *testing.T) {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 50})
	model, _, err := feat.Train(feat.FromLabeled(reg.Labels()), feat.TrainConfig{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	eng := statEngine(t, 60, model)

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
	var alerts []Alert
	if err := eng.ProcessDelta(context.Background(), d, func(a Alert) error {
		alerts = append(alerts, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	byDomain := map[string]bool{}
	for _, a := range alerts {
		byDomain[a.Domain] = true
	}
	attacks, caught := 0, 0
	for _, z := range gt.Zones {
		for _, rec := range z.Records {
			if rec.Op != zonegen.DeltaAdd || rec.Attack != zonegen.AttackHomograph {
				continue
			}
			attacks++
			if byDomain[rec.Owner+"."+z.Origin] {
				caught++
			}
		}
	}
	if attacks == 0 {
		t.Fatal("generator produced no homograph attacks; test is vacuous")
	}
	// The train-time prefilter floor keeps ≥99.5% recall on attack
	// populations; on a one-day delta that means at most a stray miss.
	if float64(caught) < 0.95*float64(attacks) {
		t.Fatalf("prefilter ate recall: %d/%d attacks alerted", caught, attacks)
	}

	st := eng.DetectorStats()
	if !st.StatLoaded {
		t.Fatal("detector stats must report the loaded model")
	}
	if st.PrefilterPass == 0 {
		t.Fatal("no events passed the prefilter, yet alerts fired")
	}
	if st.PrefilterPass+st.PrefilterShed == 0 {
		t.Fatal("gate counters did not move")
	}
}

// TestEngineStatGateSheds: a delta of purely benign churn should be
// mostly shed before the SSIM probe.
func TestEngineStatGateSheds(t *testing.T) {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 50})
	model, _, err := feat.Train(feat.FromLabeled(reg.Labels()), feat.TrainConfig{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	eng := statEngine(t, 60, model)

	dir := t.TempDir()
	benign := zonegen.DeltaConfig{AddsPerDay: 300, DropsPerDay: 30, NSChangesPerDay: 20}
	days := writeDeltaDir(t, dir, 99, benign, 1)
	data, err := os.ReadFile(filepath.Join(dir, zonegen.DeltaFileName(days[0].Serial)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessDelta(context.Background(), d, func(Alert) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := eng.DetectorStats()
	total := st.PrefilterPass + st.PrefilterShed
	if total == 0 {
		t.Fatal("no IDN adds reached the gate; test is vacuous")
	}
	if st.PrefilterShed == 0 {
		t.Fatalf("benign churn shed nothing (pass=%d shed=%d)", st.PrefilterPass, st.PrefilterShed)
	}
}
