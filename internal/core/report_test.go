package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"idnlab/internal/brands"
)

func TestStudyRunProducesAllSections(t *testing.T) {
	st := NewStudy(testDS)
	var sb strings.Builder
	if err := st.RunContext(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantSections := []string{
		"TABLE I:", "TABLE II:", "FIGURE 1:", "TABLE III:", "TABLE IV:",
		"FIGURE 2:", "FIGURE 3:", "FIGURE 4:", "TABLE V:", "TABLE VI:",
		"TABLE VII:", "TABLE VIII:", "TABLE IX:", "TABLE XI:", "TABLE XII:",
		"TABLE XIII:", "FIGURE 5:", "FIGURE 6:", "FIGURE 7:", "TABLE XIV:",
		"FIGURE 8:",
	}
	for _, s := range wantSections {
		if !strings.Contains(out, s) {
			t.Errorf("report missing section %q", s)
		}
	}
	// Spot-check content anchors.
	for _, anchor := range []string{"GMO Internet Inc.", "sedoparking.com", "google.com", "58.com", "Sogou"} {
		if !strings.Contains(out, anchor) {
			t.Errorf("report missing anchor %q", anchor)
		}
	}
}

func TestLadderDescends(t *testing.T) {
	det := NewHomographDetector(1000)
	ladder := det.Ladder("google")
	if len(ladder) < 4 {
		t.Fatalf("ladder too short: %d", len(ladder))
	}
	if ladder[0].SSIM < 1.0-1e-9 {
		t.Errorf("ladder should start at identical (1.0), got %.4f", ladder[0].SSIM)
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].SSIM >= ladder[i-1].SSIM {
			t.Errorf("ladder not descending at %d: %.4f >= %.4f", i, ladder[i].SSIM, ladder[i-1].SSIM)
		}
	}
}

func TestExamplesForFacebook(t *testing.T) {
	det := NewHomographDetector(1000)
	examples := det.ExamplesFor("facebook", 12)
	if len(examples) != 12 {
		t.Fatalf("examples = %d", len(examples))
	}
	for _, ex := range examples {
		if ex.Unicode == "facebook" {
			t.Error("example equals the brand itself")
		}
		if !strings.HasPrefix(ex.ACE, "xn--") {
			t.Errorf("example ACE %q lacks prefix", ex.ACE)
		}
	}
}

func TestUnregisteredTrafficShape(t *testing.T) {
	st := NewStudy(testDS)
	reg, unreg := st.UnregisteredTraffic(100)
	if len(unreg) == 0 {
		t.Fatal("no unregistered candidate traffic observed (Figure 6 noise missing)")
	}
	// Unregistered traffic must be tiny compared to registered
	// homographic traffic.
	var regMean, unregMean float64
	for _, v := range reg {
		regMean += v
	}
	if len(reg) > 0 {
		regMean /= float64(len(reg))
	}
	for _, v := range unreg {
		unregMean += v
	}
	unregMean /= float64(len(unreg))
	if unregMean > 10 {
		t.Errorf("unregistered mean queries = %.1f, should be stray noise", unregMean)
	}
	if len(reg) > 0 && regMean <= unregMean {
		t.Errorf("registered mean (%.1f) should exceed unregistered (%.1f)", regMean, unregMean)
	}
}

func TestNewDefaultDataset(t *testing.T) {
	ds, err := NewDefaultDataset(5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.IDNs) == 0 || len(ds.NonIDNs) == 0 {
		t.Fatal("tiny dataset empty")
	}
	if ds.Scale() != 2000 {
		t.Errorf("Scale = %d", ds.Scale())
	}
}

// BenchmarkStudyRun lives in report_bench_test.go: it assembles a fresh
// Dataset per iteration so the corpus index and cached scans cannot carry
// over between timed runs.

func BenchmarkHomographDetectCorpus(b *testing.B) {
	det := NewHomographDetector(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(testDS.IDNs)
	}
}

func BenchmarkSemanticDetectCorpus(b *testing.B) {
	det := newSemanticDetector(brands.TopK(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(testDS.IDNs)
	}
}

func TestWriteJSON(t *testing.T) {
	st := NewStudy(testDS)
	var sb strings.Builder
	if err := st.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if back.IDNs != len(testDS.IDNs) || back.Scale != 100 {
		t.Errorf("round-tripped results wrong: idns=%d scale=%d", back.IDNs, back.Scale)
	}
	if back.Homographs.Total != len(back.Homographs.Matches) {
		t.Error("homograph totals inconsistent")
	}
	if len(back.BrowserSurvey) != 27 {
		t.Errorf("browser survey rows = %d", len(back.BrowserSurvey))
	}
	if back.Findings.CertProblemRate < 0.9 {
		t.Errorf("findings lost in JSON: %+v", back.Findings)
	}
	if len(back.Languages) == 0 || back.Languages[0].Count == 0 {
		t.Error("languages lost in JSON")
	}
}
