package core

import (
	"strings"
	"testing"

	"idnlab/internal/zonegen"
)

func TestType2DetectOne(t *testing.T) {
	det := NewType2Detector(nil)
	cases := []struct {
		domain string
		brand  string
		ok     bool
	}{
		{"格力空调.net", "gree.com", true}, // paper Table X row
		{"支付宝.com", "alipay.com", true},
		{"xn--fiq64b5ls6jj9e.com", "", false}, // 中国电信 — not in dictionary
		{"谷歌.com", "google.com", true},
		{"example.com", "", false},
		{"apple邮箱.com", "", false}, // Type-1 shape, not Type-2
	}
	for _, tc := range cases {
		m, ok := det.DetectOne(tc.domain)
		if ok != tc.ok {
			t.Errorf("DetectOne(%q) ok = %v, want %v", tc.domain, ok, tc.ok)
			continue
		}
		if ok && m.Brand != tc.brand {
			t.Errorf("DetectOne(%q) brand = %q, want %q", tc.domain, m.Brand, tc.brand)
		}
	}
}

func TestType2DetectsGeneratedPopulation(t *testing.T) {
	det := NewType2Detector(nil)
	matches := det.Detect(testDS.IDNs)
	// At scale 100 at least one Type-2 domain is generated and must be
	// recovered.
	if len(matches) == 0 {
		t.Fatal("no Type-2 matches on corpus")
	}
	// Recall over ground truth.
	total, recovered := 0, 0
	reg := testDS.Registry
	for i := range reg.Domains {
		d := &reg.Domains[i]
		if d.Attack != zonegen.AttackSemantic2 {
			continue
		}
		total++
		if _, ok := det.DetectOne(d.ACE); ok {
			recovered++
		}
	}
	if total == 0 {
		t.Fatal("no Type-2 ground truth generated")
	}
	if recovered != total {
		t.Errorf("Type-2 recall %d/%d; dictionary lookup should be exact", recovered, total)
	}
}

func TestType2CustomDictionary(t *testing.T) {
	det := NewType2Detector(map[string][]string{"example.com": {"例子"}})
	if m, ok := det.DetectOne("例子.com"); !ok || m.Brand != "example.com" {
		t.Errorf("custom dict: %v %v", m, ok)
	}
	if _, ok := det.DetectOne("谷歌.com"); ok {
		t.Error("custom dict should not contain defaults")
	}
}

func TestReportTable10(t *testing.T) {
	st := NewStudy(testDS)
	var sb strings.Builder
	if err := st.ReportTable10(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TABLE X:") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestType2MatchString(t *testing.T) {
	m := Type2Match{Domain: "xn--x.com", Unicode: "格力空调.com", Brand: "gree.com"}
	if !strings.Contains(m.String(), "gree.com") {
		t.Error("String() missing brand")
	}
}
