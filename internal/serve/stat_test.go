package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"idnlab/internal/feat"
	"idnlab/internal/zonegen"
)

// Shared trained model for the stat-serving tests: one training run,
// reused by every test in the package.
var statFixture struct {
	once  sync.Once
	model *feat.Model
	exs   []feat.Example
	err   error
}

func statModel(t *testing.T) (*feat.Model, []feat.Example) {
	t.Helper()
	statFixture.once.Do(func() {
		reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 50})
		statFixture.exs = feat.FromLabeled(reg.Labels())
		statFixture.model, _, statFixture.err = feat.Train(statFixture.exs, feat.TrainConfig{Seed: 2018})
	})
	if statFixture.err != nil {
		t.Fatalf("train: %v", statFixture.err)
	}
	return statFixture.model, statFixture.exs
}

// TestDetectWithStatModel covers the ensemble serving path: a
// structural homograph still flags (the prefilter must pass it), the
// verdict carries the ensemble fields, and a statistically flagged
// label reports the classifier's contribution breakdown.
func TestDetectWithStatModel(t *testing.T) {
	m, exs := statModel(t)
	_, ts := testServer(t, Config{TopK: 1000, Stat: m})

	var out struct {
		Flagged     bool             `json:"flagged"`
		Suspicion   string           `json:"suspicion"`
		Homograph   *json.RawMessage `json:"homograph"`
		Statistical *struct {
			Score float64 `json:"score"`
			Top   []struct {
				Feature string `json:"feature"`
			} `json:"top"`
		} `json:"statistical"`
		Confidence *struct {
			Homograph   float64 `json:"homograph"`
			Semantic    float64 `json:"semantic"`
			Statistical float64 `json:"statistical"`
		} `json:"confidence"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if !out.Flagged || out.Homograph == nil {
		t.Fatalf("canonical homograph must still flag with the prefilter on: %s", body)
	}
	if out.Suspicion != "high" {
		t.Fatalf("structural match must be high suspicion, got %q", out.Suspicion)
	}
	if out.Confidence == nil || out.Confidence.Homograph <= 0 {
		t.Fatalf("ensemble confidence missing: %s", body)
	}

	// A statistically flagged attack label reports the third detector's
	// score and top contributing features.
	var attack *feat.Example
	for i := range exs {
		e := &exs[i]
		if e.Eval && e.Positive && m.Flag(m.ScoreLabel(e.Label, e.ACELabel, e.TLD)) {
			attack = e
			break
		}
	}
	if attack == nil {
		t.Fatal("no held-out positive flagged by the model")
	}
	resp, body = postJSON(t, ts.URL+"/v1/detect",
		`{"domain":"`+attack.ACELabel+`.`+attack.TLD+`"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if out.Statistical == nil || !out.Flagged {
		t.Fatalf("flagged positive lost its statistical verdict: %s", body)
	}
	if out.Statistical.Score <= 0 || out.Statistical.Score > 1 {
		t.Fatalf("statistical score %v outside (0,1]", out.Statistical.Score)
	}
	if len(out.Statistical.Top) == 0 {
		t.Fatalf("statistical verdict missing contribution breakdown: %s", body)
	}
	if out.Suspicion == "" || out.Suspicion == "none" {
		t.Fatalf("flagged verdict carries suspicion %q", out.Suspicion)
	}
}

// TestDetectStatShed pins the shed path: a benign ASCII-adjacent label
// the model sheds gets suspicion "none", no detector fields, and the
// shed shows up in /metrics alongside the rescore_early_exit counter.
func TestDetectStatShed(t *testing.T) {
	m, exs := statModel(t)
	s, ts := testServer(t, Config{TopK: 1000, Stat: m})

	var shed *feat.Example
	for i := range exs {
		e := &exs[i]
		if !e.Positive && !m.PrefilterPass(m.ScoreLabel(e.Label, e.ACELabel, e.TLD)) &&
			strings.HasPrefix(e.ACELabel, "xn--") {
			shed = e
			break
		}
	}
	if shed == nil {
		t.Fatal("no benign IDN example shed by the model")
	}
	resp, body := postJSON(t, ts.URL+"/v1/detect",
		`{"domain":"`+shed.ACELabel+`.`+shed.TLD+`"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Suspicion string           `json:"suspicion"`
		Homograph *json.RawMessage `json:"homograph"`
		Flagged   bool             `json:"flagged"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if out.Suspicion != "none" || out.Homograph != nil || out.Flagged {
		t.Fatalf("shed verdict: %s", body)
	}

	snap := s.Snapshot()
	if !snap.Detector.StatLoaded {
		t.Fatal("metrics must report the loaded model")
	}
	if snap.Detector.PrefilterShed == 0 {
		t.Fatal("shed counter did not move")
	}

	// The wire keys the satellite fix promises: rescore_early_exit plus
	// the prefilter split, decoded from the actual /metrics payload.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody := readAll(t, mresp)
	for _, key := range []string{`"rescore_early_exit"`, `"prefilter_pass"`, `"prefilter_shed"`, `"stat_loaded":true`} {
		if !strings.Contains(mbody, key) {
			t.Fatalf("/metrics missing %s: %s", key, mbody)
		}
	}
}

// TestStatDisabledWireUnchanged proves the ensemble fields stay off the
// wire entirely when no model is configured — the back-compat contract.
func TestStatDisabledWireUnchanged(t *testing.T) {
	_, ts := testServer(t, Config{TopK: 1000})
	_, body := postJSON(t, ts.URL+"/v1/detect", `{"domain":"xn--pple-43d.com"}`)
	for _, key := range []string{`"statistical"`, `"confidence"`, `"suspicion"`} {
		if strings.Contains(body, key) {
			t.Fatalf("model-less verdict leaked ensemble key %s: %s", key, body)
		}
	}
}
