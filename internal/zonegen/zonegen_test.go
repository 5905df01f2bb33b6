package zonegen

import (
	"math"
	"testing"
	"time"

	"idnlab/internal/idna"
	"idnlab/internal/langid"
)

// testRegistry is generated once; tests are read-only over it.
var testRegistry = Generate(Config{Seed: 1, Scale: 100})

func countIf(r *Registry, pred func(*Domain) bool) int {
	n := 0
	for i := range r.Domains {
		if pred(&r.Domains[i]) {
			n++
		}
	}
	return n
}

func TestIDNTotalsPerTLD(t *testing.T) {
	got := map[string]int{}
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if !d.IsIDN {
			continue
		}
		key := d.TLD
		if idna.IsACELabel(key) {
			key = "itld"
		}
		got[key]++
	}
	for _, row := range TableI {
		want := testRegistry.Cfg.scaleCount(row.IDNs)
		g := got[row.TLD]
		// Attack populations may push a TLD slightly past its quota.
		if g < want || g > want+want/10+60 {
			t.Errorf("TLD %s: %d IDNs, want ≈%d", row.TLD, g, want)
		}
	}
}

func TestNonIDNSampleSizes(t *testing.T) {
	got := countIf(testRegistry, func(d *Domain) bool { return !d.IsIDN })
	want := testRegistry.Cfg.scaleCount(1000000 + 100000 + 100000)
	if got != want {
		t.Errorf("non-IDN sample = %d, want %d", got, want)
	}
}

func TestAllDomainsEncodable(t *testing.T) {
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if _, err := idna.ToASCII(d.ACE); err != nil {
			t.Fatalf("domain %q not valid ACE: %v", d.ACE, err)
		}
		uni, err := idna.ToUnicode(d.ACE)
		if err != nil {
			t.Fatalf("domain %q not decodable: %v", d.ACE, err)
		}
		if uni != d.Unicode {
			t.Fatalf("domain %q decodes to %q, registry says %q", d.ACE, uni, d.Unicode)
		}
	}
}

func TestACEUniqueness(t *testing.T) {
	seen := make(map[string]struct{}, len(testRegistry.Domains))
	for i := range testRegistry.Domains {
		ace := testRegistry.Domains[i].ACE
		if _, dup := seen[ace]; dup {
			t.Fatalf("duplicate domain %q", ace)
		}
		seen[ace] = struct{}{}
	}
}

func TestLanguageMixMatchesTableII(t *testing.T) {
	counts := map[langid.Language]int{}
	idns := 0
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.IsIDN {
			counts[d.Lang]++
			idns++
		}
	}
	chinese := float64(counts[langid.Chinese]) / float64(idns)
	if math.Abs(chinese-0.52) > 0.08 {
		t.Errorf("Chinese share = %.3f, want ≈0.52", chinese)
	}
	japanese := float64(counts[langid.Japanese]) / float64(idns)
	if math.Abs(japanese-0.13) > 0.05 {
		t.Errorf("Japanese share = %.3f, want ≈0.13", japanese)
	}
	eastAsian := float64(counts[langid.Chinese]+counts[langid.Japanese]+counts[langid.Korean]+counts[langid.Thai]) / float64(idns)
	if eastAsian < 0.70 {
		t.Errorf("east-Asian share = %.3f; Finding 1 wants >0.75 area", eastAsian)
	}
}

func TestBlacklistVolume(t *testing.T) {
	mal := countIf(testRegistry, func(d *Domain) bool { return d.IsIDN && d.Malicious() })
	want := testRegistry.Cfg.scaleCount(6241)
	if mal < want*7/10 || mal > want*16/10 {
		t.Errorf("malicious IDNs = %d, want ≈%d", mal, want)
	}
}

func TestWHOISCoverage(t *testing.T) {
	have := countIf(testRegistry, func(d *Domain) bool { return d.IsIDN && d.HasWHOIS })
	idns := countIf(testRegistry, func(d *Domain) bool { return d.IsIDN })
	rate := float64(have) / float64(idns)
	if math.Abs(rate-0.50) > 0.07 {
		t.Errorf("WHOIS coverage = %.3f, want ≈0.50", rate)
	}
}

func TestRegistrarConcentration(t *testing.T) {
	counts := map[string]int{}
	idns := 0
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.IsIDN {
			counts[d.Registrar]++
			idns++
		}
	}
	gmo := float64(counts["GMO Internet Inc."]) / float64(idns)
	if math.Abs(gmo-0.23) > 0.05 {
		t.Errorf("GMO share = %.3f, want ≈0.23", gmo)
	}
	if len(counts) < 200 {
		t.Errorf("distinct registrars = %d; want a long tail (paper: >700)", len(counts))
	}
}

func TestHomographPopulation(t *testing.T) {
	total := 0
	byBrand := map[string]int{}
	identical := 0
	protective := 0
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.Attack != AttackHomograph {
			continue
		}
		total++
		byBrand[d.TargetBrand]++
		if d.Protective {
			protective++
		}
		_ = identical
	}
	want := testRegistry.Cfg.scaleAtLeast1(HomographTotal)
	if math.Abs(float64(total-want)) > float64(want)/5 {
		t.Errorf("homographs = %d, want ≈%d", total, want)
	}
	if byBrand["google.com"] == 0 {
		t.Error("google.com should be targeted (Table XIII top)")
	}
	for brand, n := range byBrand {
		if n > byBrand["google.com"] && brand != "google.com" {
			t.Errorf("brand %s has %d homographs, more than google's %d", brand, n, byBrand["google.com"])
		}
	}
	if protective == 0 {
		t.Error("some protective homograph registrations expected")
	}
}

func TestSemanticPopulation(t *testing.T) {
	total := 0
	byBrand := map[string]int{}
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.Attack != AttackSemantic {
			continue
		}
		total++
		byBrand[d.TargetBrand]++
		// Type-1 shape: ASCII brand label + CJK keyword.
		label := d.Unicode[:len(d.Unicode)-len(d.TLD)-1]
		hasCJK := false
		for _, r := range label {
			if r >= 0x2E80 {
				hasCJK = true
			}
		}
		if !hasCJK {
			t.Errorf("semantic IDN %q lacks CJK keyword", d.Unicode)
		}
	}
	want := testRegistry.Cfg.scaleAtLeast1(SemanticTotal)
	if math.Abs(float64(total-want)) > float64(want)/5 {
		t.Errorf("semantic IDNs = %d, want ≈%d", total, want)
	}
	for brand, n := range byBrand {
		if n > byBrand["58.com"] && brand != "58.com" {
			t.Errorf("brand %s has %d semantic IDNs, more than 58.com's %d", brand, n, byBrand["58.com"])
		}
	}
}

func TestOpportunisticPortfolios(t *testing.T) {
	counts := map[string]int{}
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.RegistrantEmail != "" {
			counts[d.RegistrantEmail]++
		}
	}
	for _, opp := range TableIIIRegistrants[:5] {
		want := testRegistry.Cfg.scaleAtLeast1(opp.Count)
		if got := counts[opp.Email]; got < want*8/10 {
			t.Errorf("registrant %s has %d domains, want ≈%d", opp.Email, got, want)
		}
	}
}

func TestCreationDatesWithinRange(t *testing.T) {
	snapshot := Snapshot
	pre2008 := 0
	idns := 0
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.Created.After(snapshot) {
			t.Fatalf("domain %s created after snapshot: %v", d.ACE, d.Created)
		}
		if d.Created.Year() < 2000 {
			t.Fatalf("domain %s created before 2000: %v", d.ACE, d.Created)
		}
		if d.IsIDN {
			idns++
			if d.Created.Year() < 2008 {
				pre2008++
			}
		}
	}
	rate := float64(pre2008) / float64(idns)
	// Finding 2: 6.16% of IDNs created before 2008.
	if math.Abs(rate-0.0616) > 0.03 {
		t.Errorf("pre-2008 share = %.4f, want ≈0.0616", rate)
	}
}

func TestPDNSInvariants(t *testing.T) {
	for i := range testRegistry.Domains {
		d := &testRegistry.Domains[i]
		if d.LastSeen.Before(d.FirstSeen) {
			t.Fatalf("%s: last seen before first seen", d.ACE)
		}
		if d.LastSeen.After(Snapshot) {
			t.Fatalf("%s: last seen after snapshot", d.ACE)
		}
		if d.Queries < 1 {
			t.Fatalf("%s: no queries", d.ACE)
		}
		if len(d.IPs) == 0 {
			t.Fatalf("%s: no IPs", d.ACE)
		}
	}
}

func TestActivitySeparation(t *testing.T) {
	// Findings 5/6: IDN < non-IDN < malicious in both active time and
	// query volume, on medians.
	median := func(pred func(*Domain) bool, metric func(*Domain) float64) float64 {
		var vals []float64
		for i := range testRegistry.Domains {
			d := &testRegistry.Domains[i]
			if pred(d) {
				vals = append(vals, metric(d))
			}
		}
		if len(vals) == 0 {
			return 0
		}
		// Insertion into a sorted copy is overkill; quickselect not
		// needed at test scale.
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return vals[len(vals)/2]
	}
	active := func(d *Domain) float64 { return d.LastSeen.Sub(d.FirstSeen).Hours() / 24 }
	queries := func(d *Domain) float64 { return float64(d.Queries) }
	benignIDN := func(d *Domain) bool { return d.IsIDN && !d.Malicious() && d.Attack == AttackNone }
	nonIDN := func(d *Domain) bool { return !d.IsIDN }
	malicious := func(d *Domain) bool { return d.IsIDN && d.Malicious() }

	if mi, mn := median(benignIDN, active), median(nonIDN, active); mi >= mn {
		t.Errorf("median active: IDN %.0f >= non-IDN %.0f", mi, mn)
	}
	if mi, mm := median(benignIDN, queries), median(malicious, queries); mi >= mm {
		t.Errorf("median queries: IDN %.0f >= malicious %.0f", mi, mm)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 7, Scale: 400})
	b := Generate(Config{Seed: 7, Scale: 400})
	if len(a.Domains) != len(b.Domains) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Domains), len(b.Domains))
	}
	for i := range a.Domains {
		if a.Domains[i].ACE != b.Domains[i].ACE ||
			a.Domains[i].Queries != b.Domains[i].Queries ||
			!a.Domains[i].Created.Equal(b.Domains[i].Created) {
			t.Fatalf("domain %d differs: %+v vs %+v", i, a.Domains[i], b.Domains[i])
		}
	}
	c := Generate(Config{Seed: 8, Scale: 400})
	if len(c.Domains) == len(a.Domains) && c.Domains[0].ACE == a.Domains[0].ACE &&
		c.Domains[1].ACE == a.Domains[1].ACE && c.Domains[2].ACE == a.Domains[2].ACE {
		t.Error("different seeds produced suspiciously identical output")
	}
}

func TestITLDCount(t *testing.T) {
	if len(testRegistry.ITLDs) != NumITLDs {
		t.Errorf("iTLDs = %d, want %d", len(testRegistry.ITLDs), NumITLDs)
	}
	for _, origin := range testRegistry.ITLDs {
		if !idna.IsACELabel(origin) {
			t.Errorf("iTLD origin %q not ACE", origin)
		}
	}
}

func TestSLDTotalsAnalytic(t *testing.T) {
	if got := testRegistry.SLDTotals["com"]; got != testRegistry.Cfg.scaleCount(129216926) {
		t.Errorf("com SLD total = %d", got)
	}
}

// TestSnapshotDefault: the universe is anchored at the paper's
// snapshot, and its passive-DNS history runs right up to it.
func TestSnapshotDefault(t *testing.T) {
	if !Snapshot.Equal(time.Date(2017, 10, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("snapshot = %v, want the paper's 2017-10-01", Snapshot)
	}
	var last time.Time
	for i := range testRegistry.Domains {
		if d := &testRegistry.Domains[i]; d.LastSeen.After(last) {
			last = d.LastSeen
		}
	}
	if !last.Equal(Snapshot) {
		t.Errorf("latest last-seen = %v, want the snapshot %v", last, Snapshot)
	}
}

func TestAllocate(t *testing.T) {
	got := allocate(10, []float64{5, 3, 2})
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Errorf("allocate = %v", got)
	}
	got = allocate(7, []float64{1, 1, 1})
	sum := got[0] + got[1] + got[2]
	if sum != 7 {
		t.Errorf("allocate sum = %d", sum)
	}
	if got := allocate(0, []float64{1, 2}); got[0] != 0 || got[1] != 0 {
		t.Errorf("allocate(0) = %v", got)
	}
	if got := allocate(5, nil); len(got) != 0 {
		t.Errorf("allocate(nil) = %v", got)
	}
}

// BenchmarkGenerateScale20 generates the bench corpus (133,641 domains,
// where most ASCII labels collide in unique). cmd/benchgate holds its
// domains/s to a floor.
func BenchmarkGenerateScale20(b *testing.B) {
	b.ReportAllocs()
	domains := 0
	for i := 0; i < b.N; i++ {
		domains += len(Generate(Config{Seed: 2018, Scale: 20}).Domains)
	}
	b.ReportMetric(float64(domains)/b.Elapsed().Seconds(), "domains/s")
}

func TestProportionsStableAcrossScales(t *testing.T) {
	// The scale model's core promise: proportions hold at any divisor.
	shares := func(scale int) (chinese, com, malicious float64) {
		reg := Generate(Config{Seed: 3, Scale: scale})
		var idns, ch, comN, mal int
		for i := range reg.Domains {
			d := &reg.Domains[i]
			if !d.IsIDN {
				continue
			}
			idns++
			if d.Lang == langid.Chinese {
				ch++
			}
			if d.TLD == "com" {
				comN++
			}
			if d.Malicious() {
				mal++
			}
		}
		return float64(ch) / float64(idns), float64(comN) / float64(idns), float64(mal) / float64(idns)
	}
	ch50, com50, mal50 := shares(50)
	ch400, com400, mal400 := shares(400)
	if math.Abs(ch50-ch400) > 0.06 {
		t.Errorf("Chinese share drifts across scales: %.3f vs %.3f", ch50, ch400)
	}
	if math.Abs(com50-com400) > 0.06 {
		t.Errorf("com share drifts across scales: %.3f vs %.3f", com50, com400)
	}
	if math.Abs(mal50-mal400) > 0.01 {
		t.Errorf("malicious share drifts across scales: %.4f vs %.4f", mal50, mal400)
	}
}
