package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"idnlab/internal/proctest"
	"idnlab/internal/zonegen"
)

// TestDoor scans the tree `idnzonegen -out` writes with -dir: every
// zone's line carries the SLD and IDN counts of the registry that
// generated it, the zones come in sorted order, and the TOTAL line sums
// them.
func TestDoor(t *testing.T) {
	dir := t.TempDir()
	if err := proctest.Build(dir, "idnscan", "idnzonegen"); err != nil {
		t.Fatal(err)
	}
	zones := filepath.Join(dir, "zones")
	if _, err := proctest.Run("idnzonegen", filepath.Join(dir, "idnzonegen"), "-out", zones, "-seed", "7", "-scale", "1000"); err != nil {
		t.Fatal(err)
	}
	out, err := proctest.Run("idnscan", filepath.Join(dir, "idnscan"), "-dir", zones)
	if err != nil {
		t.Fatal(err)
	}

	reg := zonegen.Generate(zonegen.Config{Seed: 7, Scale: 1000})
	slds, idns := map[string]int{}, map[string]int{}
	for origin := range reg.BuildZones() {
		slds[origin] = 0 // an iTLD may have no domain at this scale
	}
	for _, d := range reg.Domains {
		slds[d.TLD]++
		if d.IsIDN {
			idns[d.TLD]++
		}
	}
	var want []string
	totalSLD, totalIDN := 0, 0
	for tld, n := range slds {
		want = append(want, fmt.Sprintf("%-24s %8d SLDs %8d IDNs", tld, n, idns[tld]))
		totalSLD += n
		totalIDN += idns[tld]
	}
	sort.Strings(want)
	want = append(want, fmt.Sprintf("%-24s %8d SLDs %8d IDNs", "TOTAL", totalSLD, totalIDN))
	if out != strings.Join(want, "\n") {
		t.Errorf("idnscan -dir printed\n%s\nwant\n%s", out, strings.Join(want, "\n"))
	}
	if len(slds) < 4 || totalIDN == 0 {
		t.Errorf("the registry has %d zones and %d IDNs: too small to test the scan", len(slds), totalIDN)
	}
}
