package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is written by hand; the harness prints what spec.go
// lists. The two must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, the harness runs %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the harness prints %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s], the harness has %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if file.EndToEnd[0].Name != "setup_s" || file.EndToEnd[0].Unit != "s" || file.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s is listed as %+v", file.EndToEnd[0])
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the harness prints %d", len(file.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range file.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s], the harness has %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %q [%q] breaks the naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, file of %d bytes", file.RunSeconds, len(raw))
	}
}

func TestContractMetricsFillsAbsentLayersAndRejectsStrangers(t *testing.T) {
	specs := []metricSpec{{"a.x_ns", "ns"}, {"b.share", "share"}}
	got, err := contractMetrics(specs, map[string]metric{"a.x_ns": {12.5, "ns"}})
	if err != nil {
		t.Fatal(err)
	}
	if got["a.x_ns"] != (metric{12.5, "ns"}) || got["b.share"] != (metric{0, "share"}) || len(got) != 2 {
		t.Fatalf("laid out %v", got)
	}
	if _, err := contractMetrics(specs, map[string]metric{"a.typo_ns": {1, "ns"}}); err == nil {
		t.Error("a metric outside the list went through")
	}
	if _, err := contractMetrics(specs, map[string]metric{"a.x_ns": {1, "us"}}); err == nil {
		t.Error("a metric in another unit went through")
	}
}

func TestSizesScaleWithSecondsAndSmokeIsSmall(t *testing.T) {
	ten, twenty, smoke := sizesFor(10, false), sizesFor(20, false), sizesFor(10, true)
	if twenty.HotMeasured != 2*ten.HotMeasured || twenty.ColdMeasured != 2*ten.ColdMeasured || twenty.WatchFiles != 2*ten.WatchFiles {
		t.Errorf("work does not scale with -seconds: %+v vs %+v", ten, twenty)
	}
	if ten.HotSlice != twenty.HotSlice || ten.ColdWarm != twenty.ColdWarm {
		t.Error("the sets the quality metrics are taken over must not depend on -seconds")
	}
	if ten.HotWarm+ten.HotMeasured < ten.HotSlice || smoke.HotWarm+smoke.HotMeasured < smoke.HotSlice {
		t.Error("too few requests to cover the slice")
	}
	if smoke.HotMeasured*20 > ten.HotMeasured || smoke.StudyScale <= ten.StudyScale {
		t.Errorf("smoke sizes are not small: %+v", smoke)
	}
}
