package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
	"idnlab/internal/zonegen"
)

// The shared test dataset: one scale-100 universe assembled once.
var testDS = mustAssemble()

func mustAssemble() *Dataset {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 100})
	ds, err := Assemble(reg)
	if err != nil {
		panic(err)
	}
	return ds
}

func TestTableIShape(t *testing.T) {
	if len(testDS.PerTLD) != 4 {
		t.Fatalf("PerTLD rows = %d", len(testDS.PerTLD))
	}
	rows := make(map[string]TLDRow, 4)
	for _, r := range testDS.PerTLD {
		rows[r.TLD] = r
	}
	com := rows["com"]
	if com.IDNs < 9000 || com.IDNs > 12000 {
		t.Errorf("com IDNs = %d, want ≈10071", com.IDNs)
	}
	// com dominates: more than two thirds of all IDNs under com.
	if float64(com.IDNs) < 0.6*float64(len(testDS.IDNs)) {
		t.Errorf("com share too low: %d of %d", com.IDNs, len(testDS.IDNs))
	}
	// WHOIS coverage ≈ 50% overall, and very poor for iTLDs.
	itld := rows["itld"]
	if itld.IDNs == 0 {
		t.Fatal("no iTLD IDNs")
	}
	itldCov := float64(itld.WHOIS) / float64(itld.IDNs)
	if itldCov > 0.05 {
		t.Errorf("iTLD WHOIS coverage = %.3f, want ≈0.011", itldCov)
	}
	comCov := float64(com.WHOIS) / float64(com.IDNs)
	if math.Abs(comCov-0.586) > 0.08 {
		t.Errorf("com WHOIS coverage = %.3f, want ≈0.586", comCov)
	}
	// Blacklisted ≈ 0.42% of IDNs overall.
	blTotal := 0
	for _, r := range testDS.PerTLD {
		blTotal += r.Blacklisted
	}
	rate := float64(blTotal) / float64(len(testDS.IDNs))
	if rate < 0.002 || rate > 0.009 {
		t.Errorf("blacklist rate = %.4f, want ≈0.0042", rate)
	}
}

func TestZoneScanDiscoversAllIDNs(t *testing.T) {
	// Every IDN the registry registered must be discovered via the zone
	// scan (they all carry NS records).
	var want []string
	for i := range testDS.Registry.Domains {
		if d := &testDS.Registry.Domains[i]; d.IsIDN {
			want = append(want, d.ACE)
		}
	}
	sort.Strings(want)
	if len(testDS.IDNs) != len(want) {
		t.Fatalf("scan found %d IDNs, registry has %d", len(testDS.IDNs), len(want))
	}
	for i := range want {
		if testDS.IDNs[i] != want[i] {
			t.Fatalf("IDN %d: %q vs %q", i, testDS.IDNs[i], want[i])
		}
	}
}

func TestTableIILanguagesRecovered(t *testing.T) {
	// The classifier must recover the Table II shape from label content
	// alone: Chinese first at ≈52%, east-Asian ≥70%.
	rows := testDS.LanguageBreakdown()
	if len(rows) == 0 {
		t.Fatal("no language rows")
	}
	if rows[0].Language != langid.Chinese {
		t.Errorf("top language = %v, want Chinese", rows[0].Language)
	}
	if math.Abs(rows[0].Rate-0.52) > 0.10 {
		t.Errorf("Chinese rate = %.3f, want ≈0.52", rows[0].Rate)
	}
	eastAsian := 0.0
	for _, r := range rows {
		if r.Language.EastAsian() {
			eastAsian += r.Rate
		}
	}
	if eastAsian < 0.70 {
		t.Errorf("east-Asian rate = %.3f, want >0.75 area", eastAsian)
	}
	// Malicious mix: Chinese also tops blacklisted (56%).
	var chBlack float64
	for _, r := range rows {
		if r.Language == langid.Chinese {
			chBlack = r.BlackRate
		}
	}
	if chBlack < 0.40 {
		t.Errorf("Chinese blacklisted rate = %.3f, want ≈0.56", chBlack)
	}
}

func TestFigure1Timeline(t *testing.T) {
	all, malicious := testDS.CreationTimeline()
	if len(all) == 0 || len(malicious) == 0 {
		t.Fatal("empty timelines")
	}
	// Growth: 2016 volume far above 2005.
	if all[2016] <= all[2005] {
		t.Errorf("2016 (%d) should exceed 2005 (%d)", all[2016], all[2005])
	}
	// Spike at 2000 relative to 2001-2003.
	if all[2000] <= all[2001] {
		t.Errorf("2000 spike missing: %d vs %d", all[2000], all[2001])
	}
	// Malicious spikes at 2015 and 2017 vs 2016.
	if malicious[2015] <= malicious[2014] {
		t.Errorf("2015 malicious spike missing: %d vs %d", malicious[2015], malicious[2014])
	}
	if malicious[2017] <= malicious[2016] {
		t.Errorf("2017 malicious spike missing: %d vs %d", malicious[2017], malicious[2016])
	}
}

func TestTableIIIRegistrants(t *testing.T) {
	top := testDS.TopRegistrants(5)
	if len(top) != 5 {
		t.Fatalf("top registrants = %d", len(top))
	}
	// The bulk registrants of Table III must dominate the ranking.
	known := map[string]bool{
		"776053229@qq.com": true, "daidesheng88@gmail.com": true,
		"tetetw@gmail.com": true, "840629127@qq.com": true,
		"776053229@163.com": true,
	}
	hits := 0
	for _, gc := range top {
		if known[gc.Key] {
			hits++
		}
	}
	if hits < 3 {
		t.Errorf("only %d of top-5 registrants are Table III bulk registrants: %+v", hits, top)
	}
}

func TestTableIVRegistrars(t *testing.T) {
	top, covered := testDS.TopRegistrars(10)
	if len(top) != 10 || covered == 0 {
		t.Fatalf("top = %d covered = %d", len(top), covered)
	}
	if top[0].Key != "GMO Internet Inc." {
		t.Errorf("top registrar = %q, want GMO", top[0].Key)
	}
	share := float64(top[0].Count) / float64(covered)
	if math.Abs(share-0.23) > 0.06 {
		t.Errorf("GMO share = %.3f, want ≈0.23", share)
	}
	// Top-10 hold ≈55%.
	sum := 0
	for _, gc := range top {
		sum += gc.Count
	}
	top10 := float64(sum) / float64(covered)
	if top10 < 0.45 || top10 > 0.70 {
		t.Errorf("top-10 share = %.3f, want ≈0.55", top10)
	}
	if got := testDS.RegistrarCount(); got < 150 {
		t.Errorf("registrar count = %d, want a long tail", got)
	}
}

func TestFigures2And3DNSSeparation(t *testing.T) {
	idnActive := stats.NewECDF(testDS.ActiveTimeSeries(PopulationIDN, "com"))
	nonActive := stats.NewECDF(testDS.ActiveTimeSeries(PopulationNonIDN, "com"))
	malActive := stats.NewECDF(testDS.ActiveTimeSeries(PopulationMalicious, ""))
	// Finding 5 quantiles: ≈60% of com IDNs active <100 days vs ≈40% of
	// non-IDNs.
	idnShort := idnActive.At(100)
	nonShort := nonActive.At(100)
	if idnShort <= nonShort {
		t.Errorf("IDNs should be shorter-lived: P(<100d) IDN %.2f vs non-IDN %.2f", idnShort, nonShort)
	}
	if math.Abs(idnShort-0.60) > 0.15 {
		t.Errorf("IDN P(active<100d) = %.2f, want ≈0.60", idnShort)
	}
	// Malicious IDNs live longer than benign IDNs.
	if malActive.At(100) >= idnActive.At(100) {
		t.Errorf("malicious should be longer-lived")
	}
	// Finding 6: 88% of com IDNs under 100 queries vs 74% non-IDN.
	idnQ := stats.NewECDF(testDS.QueryVolumeSeries(PopulationIDN, "com"))
	nonQ := stats.NewECDF(testDS.QueryVolumeSeries(PopulationNonIDN, "com"))
	malQ := stats.NewECDF(testDS.QueryVolumeSeries(PopulationMalicious, ""))
	if idnQ.At(100) <= nonQ.At(100) {
		t.Error("IDNs should be queried less than non-IDNs")
	}
	if math.Abs(idnQ.At(100)-0.88) > 0.12 {
		t.Errorf("IDN P(q<100) = %.2f, want ≈0.88", idnQ.At(100))
	}
	if malQ.Mean() <= idnQ.Mean() {
		t.Error("malicious mean queries should exceed benign IDN mean")
	}
}

func TestFigure4IPConcentration(t *testing.T) {
	conc := testDS.IPConcentrationStats()
	if len(conc.Segments) == 0 || conc.TotalIPs == 0 {
		t.Fatal("no IP data")
	}
	// Concentration: top 2.3% of segments (1,000/43,535 at paper scale)
	// hold ≈80% of IDNs. At scale 100 that is the top ≈10 segments of
	// ≈435 — allow a broad band, direction matters.
	k := len(conc.Segments) * 23 / 1000
	if k < 1 {
		k = 1
	}
	if share := conc.Cumulative[minInt(k, len(conc.Cumulative))-1]; share < 0.08 {
		t.Errorf("top-%d segment share = %.3f; expected meaningful concentration", k, share)
	}
	// Cumulative curve is monotone and ends at 1.
	last := conc.Cumulative[len(conc.Cumulative)-1]
	if math.Abs(last-1) > 1e-9 {
		t.Errorf("cumulative share ends at %v", last)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTableVUsage(t *testing.T) {
	idn := testDS.UsageSample(PopulationIDN, 500, 1)
	non := testDS.UsageSample(PopulationNonIDN, 500, 1)
	if idn.Total() != 500 || non.Total() != 500 {
		t.Fatalf("sample sizes: %d, %d", idn.Total(), non.Total())
	}
	// Finding 8 directions: IDNs not-resolved ≈45% vs ≈15%; meaningful
	// ≈20% vs ≈34%.
	if idn.Rate(webprobe.NotResolved) <= non.Rate(webprobe.NotResolved) {
		t.Error("IDNs should fail resolution more often")
	}
	if math.Abs(idn.Rate(webprobe.NotResolved)-0.456) > 0.10 {
		t.Errorf("IDN not-resolved = %.3f, want ≈0.456", idn.Rate(webprobe.NotResolved))
	}
	if idn.Rate(webprobe.Meaningful) >= non.Rate(webprobe.Meaningful) {
		t.Error("non-IDNs should have more meaningful content")
	}
	if math.Abs(non.Rate(webprobe.Meaningful)-0.336) > 0.10 {
		t.Errorf("non-IDN meaningful = %.3f, want ≈0.336", non.Rate(webprobe.Meaningful))
	}
}

func TestTableVICertificates(t *testing.T) {
	idn := testDS.CertCensus(PopulationIDN)
	non := testDS.CertCensus(PopulationNonIDN)
	if idn.Total == 0 || non.Total == 0 {
		t.Fatal("no certificates classified")
	}
	// >97% of IDN certificates have problems.
	if idn.ProblemRate() < 0.90 {
		t.Errorf("IDN cert problem rate = %.3f, want >0.97 area", idn.ProblemRate())
	}
	// Shared/invalid-CN dominates for IDNs (≈67%).
	sharedRate := float64(idn.InvalidCommonName) / float64(idn.Total)
	if math.Abs(sharedRate-0.67) > 0.15 {
		t.Errorf("IDN invalid-CN rate = %.3f, want ≈0.67", sharedRate)
	}
	// Expired is relatively higher among non-IDNs (24.9% vs 12.5%).
	idnExp := float64(idn.Expired) / float64(idn.Total)
	nonExp := float64(non.Expired) / float64(non.Total)
	if idnExp >= nonExp {
		t.Errorf("expired rates: IDN %.3f should be below non-IDN %.3f", idnExp, nonExp)
	}
}

func TestTableVIISharedCNs(t *testing.T) {
	top := testDS.SharedCertificates(10)
	if len(top) == 0 {
		t.Fatal("no shared certificates")
	}
	if top[0].CommonName != "sedoparking.com" {
		t.Errorf("top shared CN = %q, want sedoparking.com", top[0].CommonName)
	}
}

func TestHomographDetectorOnCorpus(t *testing.T) {
	det := NewHomographDetector(1000)
	matches := det.Detect(testDS.IDNs)
	scaled := 1516 / 100
	if len(matches) < scaled/2 || len(matches) > scaled*3 {
		t.Errorf("homograph matches = %d, want ≈%d", len(matches), scaled)
	}
	ranking := RankBrands(matches, func(m HomographMatch) string { return m.Brand })
	if len(ranking) == 0 {
		t.Fatal("no ranking")
	}
	// google.com should be at or near the top.
	googleRank := -1
	for i, r := range ranking {
		if r.Brand == "google.com" {
			googleRank = i
		}
	}
	if googleRank < 0 || googleRank > 4 {
		t.Errorf("google.com rank = %d in %+v", googleRank, ranking)
	}
	// Some matches are pixel-identical (the "91 identical" subset).
	identical := 0
	for _, m := range matches {
		if m.SSIM >= 1.0-1e-9 {
			identical++
		}
	}
	if identical == 0 {
		t.Error("no identical-rendering homographs found")
	}
}

func TestHomographDetectorRecoversGroundTruth(t *testing.T) {
	// Recall against generated attack domains: the detector sees only
	// names, yet must recover most AttackHomograph domains.
	det := NewHomographDetector(1000)
	reg := testDS.Registry
	totalAttack, recovered := 0, 0
	for i := range reg.Domains {
		d := &reg.Domains[i]
		if d.Attack != zonegen.AttackHomograph {
			continue
		}
		totalAttack++
		if _, ok := det.DetectOne(d.ACE); ok {
			recovered++
		}
	}
	if totalAttack == 0 {
		t.Fatal("no attack domains generated")
	}
	recall := float64(recovered) / float64(totalAttack)
	if recall < 0.5 {
		t.Errorf("homograph recall = %.2f (%d/%d)", recall, recovered, totalAttack)
	}
}

func TestHomographFalsePositivesOnBenign(t *testing.T) {
	// Benign CJK IDNs must not be flagged.
	det := NewHomographDetector(1000)
	fp := 0
	checked := 0
	reg := testDS.Registry
	for i := range reg.Domains {
		d := &reg.Domains[i]
		if !d.IsIDN || d.Attack != zonegen.AttackNone || !d.Lang.EastAsian() {
			continue
		}
		checked++
		if m, ok := det.DetectOne(d.ACE); ok {
			t.Logf("false positive: %v", m)
			fp++
		}
		if checked >= 2000 {
			break
		}
	}
	if fp > checked/100 {
		t.Errorf("false positives = %d of %d benign CJK IDNs", fp, checked)
	}
}

func TestSemanticDetectorOnCorpus(t *testing.T) {
	det := NewSemanticDetector(1000)
	matches := det.Detect(testDS.IDNs)
	scaled := 1497 / 100
	if len(matches) < scaled/2 || len(matches) > scaled*3 {
		t.Errorf("semantic matches = %d, want ≈%d", len(matches), scaled)
	}
	ranking := RankBrands(matches, func(m SemanticMatch) string { return m.Brand })
	rank58 := -1
	for i, r := range ranking {
		if r.Brand == "58.com" {
			rank58 = i
		}
	}
	if rank58 < 0 || rank58 > 3 {
		t.Errorf("58.com rank = %d in %+v", rank58, ranking)
	}
	for _, m := range matches {
		if m.Keyword == "" {
			t.Errorf("match %v has empty keyword", m)
		}
		if !strings.HasPrefix(m.Unicode, strings.TrimSuffix(m.Brand, ".com")[:1]) {
			// Residue equality is checked by the detector; just ensure
			// the unicode form decodes.
			continue
		}
	}
}

func TestSemanticDetectorRecall(t *testing.T) {
	det := NewSemanticDetector(1000)
	reg := testDS.Registry
	total, recovered := 0, 0
	for i := range reg.Domains {
		d := &reg.Domains[i]
		if d.Attack != zonegen.AttackSemantic {
			continue
		}
		total++
		if _, ok := det.DetectOne(d.ACE); ok {
			recovered++
		}
	}
	if total == 0 {
		t.Fatal("no semantic domains generated")
	}
	if recovered < total*9/10 {
		t.Errorf("semantic recall = %d/%d; residue matching should be near-perfect", recovered, total)
	}
}

func TestSemanticDetectorIgnoresPlainAndHomograph(t *testing.T) {
	det := NewSemanticDetector(1000)
	for _, domain := range []string{"google.com", "xn--pple-43d.com", "xn--0wwy37b.com"} {
		if m, ok := det.DetectOne(domain); ok {
			t.Errorf("false positive: %v", m)
		}
	}
}

func TestAvailabilityStudy(t *testing.T) {
	det := NewHomographDetector(1000)
	results := det.AvailabilityStudyReg(20, testDS.Index().AvailabilityReg())
	if len(results) != 20 {
		t.Fatalf("results = %d", len(results))
	}
	totalCand, totalHomo, totalReg := 0, 0, 0
	for _, r := range results {
		totalCand += r.Candidates
		totalHomo += r.Homographic
		totalReg += r.Registered
		if r.Homographic > r.Candidates {
			t.Fatalf("brand %s: homographic %d > candidates %d", r.Brand, r.Homographic, r.Candidates)
		}
	}
	if totalCand == 0 || totalHomo == 0 {
		t.Fatal("availability study found nothing")
	}
	// Paper: 42,671 of 128,432 candidates homographic (≈33%); most
	// unregistered. Registered must be a tiny fraction of homographic.
	frac := float64(totalHomo) / float64(totalCand)
	if frac < 0.10 || frac > 0.75 {
		t.Errorf("homographic fraction = %.3f, want ≈0.33 band", frac)
	}
	if totalReg > totalHomo/5 {
		t.Errorf("registered = %d of %d homographic; most should be unregistered", totalReg, totalHomo)
	}
}

func TestDetectOneKnownAttacks(t *testing.T) {
	det := NewHomographDetector(1000)
	m, ok := det.DetectOne("xn--pple-43d.com") // аpple.com
	if !ok {
		t.Fatal("apple homograph not detected")
	}
	if m.Brand != "apple.com" {
		t.Errorf("brand = %s", m.Brand)
	}
	if m.SSIM < 1.0-1e-9 {
		t.Errorf("Cyrillic а swap should be pixel-identical, SSIM = %v", m.SSIM)
	}
	// ѕоѕо.com -> soso.com.
	if m, ok := det.DetectOne("ѕоѕо.com"); !ok || m.Brand != "soso.com" {
		t.Errorf("soso homograph: %v %v", m, ok)
	}
	// Benign names.
	for _, d := range []string{"example.com", "xn--0wwy37b.com", "中国"} {
		if m, ok := det.DetectOne(d); ok {
			t.Errorf("false positive on %s: %v", d, m)
		}
	}
}

func TestProbeUnknownDomain(t *testing.T) {
	resp := testDS.Probe("never-registered.example")
	if resp.Resolved {
		t.Error("unknown domain should not resolve")
	}
}

func TestCertReportRates(t *testing.T) {
	r := CertReport{Total: 100, Valid: 3, Expired: 12, InvalidAuthority: 18, InvalidCommonName: 67}
	if got := r.ProblemRate(); math.Abs(got-0.97) > 1e-9 {
		t.Errorf("ProblemRate = %v", got)
	}
	var zero CertReport
	if zero.ProblemRate() != 0 {
		t.Error("zero report should have rate 0")
	}
}

func TestIdnaToUnicodeAgreesWithRegistry(t *testing.T) {
	for _, d := range testDS.IDNs[:100] {
		if _, err := idna.ToUnicode(d); err != nil {
			t.Fatalf("corpus domain %q: %v", d, err)
		}
	}
}

func TestRegistrantBreakdown(t *testing.T) {
	det := NewHomographDetector(1000)
	matches := det.Detect(testDS.IDNs)
	domains := make([]string, len(matches))
	brandOf := make([]string, len(matches))
	for i, m := range matches {
		domains[i] = m.Domain
		brandOf[i] = m.Brand
	}
	bd := BreakdownRegistrants(testDS, domains, brandOf)
	if bd.WithWHOIS == 0 {
		t.Fatal("no WHOIS coverage among homographs")
	}
	if bd.Protective+bd.Personal+bd.Privacy != bd.WithWHOIS {
		t.Errorf("breakdown does not partition: %+v", bd)
	}
	// Paper §VI-C: protective registrations are a small minority (4.82%);
	// privacy dominates.
	if bd.Protective > bd.WithWHOIS/2 {
		t.Errorf("protective = %d of %d; should be a minority", bd.Protective, bd.WithWHOIS)
	}
}

func TestClassifyRegistrantCategories(t *testing.T) {
	// Find ground-truth domains of each flavor and verify classification.
	reg := testDS.Registry
	var protective, personal string
	for i := range reg.Domains {
		d := &reg.Domains[i]
		if d.Attack != zonegen.AttackHomograph || !d.HasWHOIS {
			continue
		}
		if d.Protective && protective == "" {
			protective = d.ACE
		}
		if !d.Protective && d.RegistrantEmail != "" && personal == "" {
			personal = d.ACE
		}
	}
	if protective != "" {
		gt, _ := reg.Lookup(protective)
		got, ok := testDS.ClassifyRegistrant(protective, gt.TargetBrand)
		if !ok || got != RegistrantProtective {
			t.Errorf("protective domain classified %v (ok=%v)", got, ok)
		}
	}
	if personal != "" {
		gt, _ := reg.Lookup(personal)
		got, ok := testDS.ClassifyRegistrant(personal, gt.TargetBrand)
		if !ok || got != RegistrantPersonal {
			t.Errorf("personal domain classified %v (ok=%v)", got, ok)
		}
	}
	if _, ok := testDS.ClassifyRegistrant("not-covered.example", "x.com"); ok {
		t.Error("uncovered domain should report ok=false")
	}
}
