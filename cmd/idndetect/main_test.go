package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/proctest"
	"idnlab/internal/zonegen"
)

// doorCorpus is the names both tests classify: malformed,
// boundary-length, mixed-case, trailing-dot and Unicode-vs-ACE
// spellings, every labelled attack of the (2018, 100) universe, and
// seẋ2.com.
func doorCorpus() []string {
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
	return corpus
}

// TestClassifyAgreesWithVerdict is the CLI-doors differential: a name
// given to idndetect gets the verdict idnserve would return for it
// (core.Classifier.VerdictFor) — the same homograph and semantic match,
// and INVALID exactly when the service rejects the name — over
// doorCorpus.
func TestClassifyAgreesWithVerdict(t *testing.T) {
	corpus := doorCorpus()
	cls := core.NewClassifier(core.DetectorConfig{TopK: 1000})
	d := detectors{cls: core.NewClassifier(core.DetectorConfig{TopK: 1000}).Clone(), type2: core.NewType2Detector(nil)}
	kinds := map[string]int{}
	for _, domain := range corpus {
		got := classify(d, domain)
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

// TestDoor runs the binary over the same names, with and without -q:
// its lines are classify's, in input order, -q keeps only the flagged
// ones, and the summary on stderr counts them.
func TestDoor(t *testing.T) {
	dir := t.TempDir()
	if err := proctest.Build(dir, "idndetect"); err != nil {
		t.Fatal(err)
	}
	corpus := doorCorpus()
	d := detectors{cls: core.NewClassifier(core.DetectorConfig{TopK: 1000}), type2: core.NewType2Detector(nil)}
	for _, quiet := range []bool{false, true} {
		var want []string
		flagged := 0
		for _, domain := range corpus {
			v := classify(d, domain)
			if v.flagged {
				flagged++
			}
			if v.flagged || !quiet {
				want = append(want, v.line)
			}
		}
		want = append(want, fmt.Sprintf("%d of %d domains flagged", flagged, len(corpus)))
		args := corpus
		if quiet {
			args = append([]string{"-q"}, corpus...)
		}
		out, err := proctest.Run("idndetect", filepath.Join(dir, "idndetect"), args...)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Split(out, "\n")
		if len(got) != len(want) {
			t.Errorf("quiet=%v: %d lines, want %d", quiet, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("quiet=%v: line %d is %.80q, want %.80q", quiet, i, got[i], want[i])
				break
			}
		}
	}
}
