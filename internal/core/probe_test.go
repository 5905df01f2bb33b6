package core

import (
	"testing"

	"idnlab/internal/webprobe"
)

// TestProbeReadsRegistry: the crawler observes exactly the registry's
// hosting state. A NotResolved domain answers the unresolved response,
// every other domain resolves, and the Table V classifier, which sees
// only the served response, recovers the profile the generator assigned.
func TestProbeReadsRegistry(t *testing.T) {
	for _, pop := range [][]string{testDS.IDNs, testDS.NonIDNs} {
		for _, name := range pop {
			d, ok := testDS.Registry.Lookup(name)
			if !ok {
				t.Fatalf("%s: scanned but not in the registry", name)
			}
			resp := testDS.Probe(name)
			if want := d.Hosting != webprobe.NotResolved; resp.Resolved != want {
				t.Errorf("%s: Resolved = %v, hosting %v", name, resp.Resolved, d.Hosting)
			}
			if got := webprobe.Classify(resp); got != d.Hosting {
				t.Errorf("%s: classified %v, hosting %v", name, got, d.Hosting)
			}
		}
	}
}

func TestUsageSampleNotResolvedRate(t *testing.T) {
	// The Table V "Not resolved" row is the share of sampled IDNs whose
	// name servers refuse them; the census must land near the paper's
	// 45.6%.
	census := testDS.UsageSample(PopulationIDN, 500, 1)
	rate := census.Rate(webprobe.NotResolved)
	if rate < 0.30 || rate > 0.60 {
		t.Errorf("not-resolved rate = %.3f, want ≈0.456", rate)
	}
}
