package browser

import (
	"strings"
	"testing"
)

func TestDisplayLabelASCIIAlwaysUnicode(t *testing.T) {
	for _, p := range []Policy{PolicyAlwaysUnicode, PolicySingleScript, PolicyRestricted, PolicyAlwaysPunycode, PolicyAlert} {
		if got := DisplayLabel(p, "example"); got != RenderUnicode {
			t.Errorf("policy %v: ASCII label rendered %v", p, got)
		}
	}
}

func TestDisplayLabelMixedScript(t *testing.T) {
	// "аpple" mixes Cyrillic and Latin.
	cases := []struct {
		policy Policy
		want   Rendering
	}{
		{PolicyAlwaysUnicode, RenderUnicode},
		{PolicySingleScript, RenderPunycode},
		{PolicyRestricted, RenderPunycode},
		{PolicyAlwaysPunycode, RenderPunycode},
		{PolicyAlert, RenderUnicodeWithAlert},
	}
	for _, tc := range cases {
		if got := DisplayLabel(tc.policy, "аpple"); got != tc.want {
			t.Errorf("policy %v: got %v, want %v", tc.policy, got, tc.want)
		}
	}
}

func TestDisplayLabelWholeScriptConfusable(t *testing.T) {
	// "ѕоѕо" is single-script Cyrillic: Mozilla's policy shows Unicode
	// (the bypass), Chrome's restricted policy catches it.
	if got := DisplayLabel(PolicySingleScript, "ѕоѕо"); got != RenderUnicode {
		t.Errorf("single-script policy should be bypassed, got %v", got)
	}
	if got := DisplayLabel(PolicyRestricted, "ѕоѕо"); got != RenderPunycode {
		t.Errorf("restricted policy should catch whole-script confusable, got %v", got)
	}
}

func TestDisplayLabelLegitimateIDNStaysUnicode(t *testing.T) {
	// Real-language labels must keep displaying in Unicode under every
	// non-punycode policy — the IETF requirement the paper cites against
	// the always-punycode fix.
	for _, label := range []string{"中国", "日本語", "한국어", "bücher", "почта"} {
		for _, p := range []Policy{PolicySingleScript, PolicyRestricted} {
			if got := DisplayLabel(p, label); got != RenderUnicode {
				t.Errorf("policy %v renders legitimate %q as %v", p, label, got)
			}
		}
	}
}

func TestRestrictedAllowsNonConfusableCyrillic(t *testing.T) {
	// "почта" contains Cyrillic letters with no full ASCII skeleton, so
	// the whole-script-confusable check must not fire.
	if got := DisplayLabel(PolicyRestricted, "почта"); got != RenderUnicode {
		t.Errorf("почта rendered %v", got)
	}
}

func TestDisplayDomain(t *testing.T) {
	shown, r := DisplayDomain(PolicySingleScript, "аpple.com")
	if r != RenderPunycode {
		t.Fatalf("rendering = %v", r)
	}
	if shown != "xn--pple-43d.com" {
		t.Errorf("shown = %q", shown)
	}
	shown, r = DisplayDomain(PolicySingleScript, "ѕоѕо.com")
	if r != RenderUnicode || shown != "ѕоѕо.com" {
		t.Errorf("whole-script: shown %q rendering %v", shown, r)
	}
}

func TestEvaluateMatchesTableXI(t *testing.T) {
	// Every published cell of Table XI's homograph columns.
	want := map[string]Outcome{
		"Chrome/PC":         OutcomeSafe,
		"Firefox/PC":        OutcomeBypassed,
		"Opera/PC":          OutcomeBypassed,
		"Safari/PC":         OutcomeSafe,
		"IE/PC":             OutcomeAlert,
		"QQ/PC":             OutcomeSafe,
		"Baidu/PC":          OutcomeBypassed,
		"Qihoo 360/PC":      OutcomeSafe,
		"Sogou/PC":          OutcomeVulnerable,
		"Liebao/PC":         OutcomeBypassed,
		"Chrome/iOS":        OutcomeSafe,
		"Firefox/iOS":       OutcomeSafe,
		"Opera/iOS":         OutcomeSafe,
		"Safari/iOS":        OutcomeSafe,
		"QQ/iOS":            OutcomeTitle,
		"Baidu/iOS":         OutcomeTitle,
		"Qihoo 360/iOS":     OutcomeTitle,
		"Sogou/iOS":         OutcomeTitle,
		"Liebao/iOS":        OutcomeTitle,
		"Chrome/Android":    OutcomeSafe,
		"Firefox/Android":   OutcomeBypassed,
		"Opera/Android":     OutcomeSafe,
		"QQ/Android":        OutcomeAboutBlank,
		"Baidu/Android":     OutcomeTitle,
		"Qihoo 360/Android": OutcomeSafe,
		"Sogou/Android":     OutcomeTitle,
		"Liebao/Android":    OutcomeTitle,
	}
	seen := 0
	for _, p := range Survey() {
		key := p.Name + "/" + string(p.Platform)
		wantOut, ok := want[key]
		if !ok {
			t.Errorf("unexpected profile %s", key)
			continue
		}
		seen++
		if got := Evaluate(p); got != wantOut {
			t.Errorf("%s: outcome = %v, want %v", key, got, wantOut)
		}
	}
	if seen != len(want) {
		t.Errorf("survey covered %d profiles, want %d", seen, len(want))
	}
}

func TestSurveyShape(t *testing.T) {
	profiles := Survey()
	perPlatform := map[Platform]int{}
	for _, p := range profiles {
		perPlatform[p.Platform]++
	}
	// Table XI: 10 PC browsers, 9 on iOS (no IE), 8 on Android (no
	// Safari/IE).
	if perPlatform[PlatformPC] != 10 || perPlatform[PlatformIOS] != 9 || perPlatform[PlatformAndroid] != 8 {
		t.Errorf("per-platform counts = %v", perPlatform)
	}
}

func TestRunSurveyRowsComplete(t *testing.T) {
	rows := RunSurvey()
	if len(rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(rows))
	}
	for _, r := range rows {
		if r.Browser == "" || r.Version == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
}

func TestPolicyAndOutcomeStrings(t *testing.T) {
	if PolicyRestricted.String() != "restricted" || Policy(0).String() != "unknown" {
		t.Error("policy names wrong")
	}
	if OutcomeVulnerable.String() != "Vulnerable" || OutcomeSafe.String() != "" {
		t.Error("outcome names wrong")
	}
	if !strings.Contains(ITLDNeedPrefix.String(), "prefix") {
		t.Error("iTLD names wrong")
	}
}

func BenchmarkDisplayDomainRestricted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = DisplayDomain(PolicyRestricted, "ѕоѕо.com")
	}
}

func BenchmarkEvaluateSurvey(b *testing.B) {
	profiles := Survey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			_ = Evaluate(p)
		}
	}
}
