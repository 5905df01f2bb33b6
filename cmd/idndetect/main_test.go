package main

import (
	"fmt"
	"strings"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/zonegen"
)

// TestClassifyAgreesWithVerdict is the CLI-doors differential: a name
// given to idndetect gets the verdict idnserve would return for it
// (core.Classifier.VerdictFor) — the same homograph and semantic match,
// and INVALID exactly when the service rejects the name — over
// malformed, boundary-length, mixed-case, trailing-dot and
// Unicode-vs-ACE spellings, every labelled attack of the (2018, 100)
// universe, and seẋ2.com.
func TestClassifyAgreesWithVerdict(t *testing.T) {
	label63 := strings.Repeat("a", 63)
	name253 := strings.Repeat(label63+".", 3) + strings.Repeat("b", 57) + ".com" // 3*64 + 57 + 4 octets
	name254 := strings.Repeat(label63+".", 3) + strings.Repeat("b", 58) + ".com"
	corpus := []string{
		// Malformed and empty-label names.
		"", ".", "..", "a..com", ".com", "xn--", "xn--.com", "xn--zz--zz.com", "bad label.com", "-a.com", "a-.com",
		// Label length: 63 octets is the limit, in ASCII and in ACE form
		// (62 CJK runes decode fine but encode to 68 octets).
		label63 + ".com", label63 + "a.com",
		strings.Repeat("中", 62) + ".com", strings.Repeat("中", 10) + ".com",
		// Name length: 253 octets is the limit.
		name253, name254,
		// One name, many spellings.
		"xn--pple-43d.com", "аpple.com", "XN--PPLE-43D.COM", "Аpple.COM", "xn--pple-43d.com.", "www.xn--pple-43d.com",
		"apple邮箱.com", "APPLE邮箱.com", "xn--apple-rq8mk98i.com", "apple邮箱.com.",
		// Clean names and a Type-2 name (no verdict field: clean for the service).
		"example.com", "Example.COM.", "bücher.de", "格力空调.net", "中国",
		// seẋ2.com, a homograph of sex.com the confusables skeleton missed.
		"xn--se2-bez.com",
	}
	for _, l := range zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 100}).Labels() {
		if l.Positive {
			corpus = append(corpus, l.ACE)
		}
	}
	cls := core.NewClassifier(core.DetectorConfig{TopK: 1000})
	d := detectors{
		homo:  core.NewHomographDetector(1000),
		sem:   core.NewSemanticDetector(1000),
		type2: core.NewType2Detector(nil),
	}
	kinds := map[string]int{}
	for _, domain := range corpus {
		got, _, err := classify(d, domain, false)
		if err != nil {
			t.Fatalf("classify(%q): %v", domain, err)
		}
		kind, _, _ := strings.Cut(got.line, " ")
		kinds[kind]++
		v, verr := cls.VerdictFor(domain)
		switch {
		case verr != nil:
			if want := fmt.Sprintf("INVALID   %s (%v)", domain, verr); got.line != want {
				t.Errorf("%.40q: idndetect says %.60q, the service rejects it: %v", domain, got.line, verr)
			}
		case v.Homograph != nil:
			if want := fmt.Sprintf("HOMOGRAPH %s", *v.Homograph); got.line != want {
				t.Errorf("%q: idndetect says %q, service verdict is %q", domain, got.line, want)
			}
		case v.Semantic != nil:
			if want := fmt.Sprintf("SEMANTIC  %s", *v.Semantic); got.line != want {
				t.Errorf("%q: idndetect says %q, service verdict is %q", domain, got.line, want)
			}
		case kind != "clean" && kind != "TYPE2":
			t.Errorf("%q: idndetect says %q, service verdict is clean", domain, got.line)
		}
		if got.flagged != (kind == "HOMOGRAPH" || kind == "SEMANTIC" || kind == "TYPE2") {
			t.Errorf("%q: flagged=%v on line %q", domain, got.flagged, got.line)
		}
	}
	for _, kind := range []string{"INVALID", "HOMOGRAPH", "SEMANTIC", "TYPE2", "clean"} {
		if kinds[kind] == 0 {
			t.Errorf("corpus produced no %s line", kind)
		}
	}
}
