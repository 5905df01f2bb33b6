package core

import (
	"context"
	"crypto/x509"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"idnlab/internal/blacklist"
	"idnlab/internal/certs"
	"idnlab/internal/idna"
	"idnlab/internal/pdns"
	"idnlab/internal/simrand"
	"idnlab/internal/stats"
	"idnlab/internal/whois"
	"idnlab/internal/zonegen"
)

// ipConcentrationMaps is the Figure 4 aggregation as three string-keyed
// set maps: the reference the integer aggregation is checked against.
func ipConcentrationMaps(infos []DomainInfo) IPConcentration {
	ipsPerSeg := make(map[string]map[string]struct{})
	domainsPerSeg := make(map[string]map[string]struct{})
	allIPs := make(map[string]struct{})
	for i := range infos {
		if !infos[i].HasPDNS {
			continue
		}
		d := infos[i].Domain
		for _, ip := range infos[i].IPs {
			seg := pdns.Slash24(ip)
			if ipsPerSeg[seg] == nil {
				ipsPerSeg[seg] = make(map[string]struct{})
				domainsPerSeg[seg] = make(map[string]struct{})
			}
			ipsPerSeg[seg][ip] = struct{}{}
			domainsPerSeg[seg][d] = struct{}{}
			allIPs[ip] = struct{}{}
		}
	}
	out := IPConcentration{TotalIPs: len(allIPs)}
	for seg, ds2 := range domainsPerSeg {
		out.Segments = append(out.Segments, pdns.SegmentStat{
			Segment: seg, Domains: len(ds2), IPs: len(ipsPerSeg[seg]),
		})
	}
	sort.Slice(out.Segments, func(i, j int) bool {
		if out.Segments[i].Domains != out.Segments[j].Domains {
			return out.Segments[i].Domains > out.Segments[j].Domains
		}
		return out.Segments[i].Segment < out.Segments[j].Segment
	})
	counts := make([]int, len(out.Segments))
	for i, s := range out.Segments {
		counts[i] = s.Domains
	}
	out.Cumulative = stats.CumulativeShare(counts)
	return out
}

// oddAddresses are strings that are not canonical dotted quads. Several
// fall in a canonical segment's name ("1.2.3.04" and "1.2.3.x" in
// 1.2.3.0/24), the rest in segments of their own.
var oddAddresses = []string{
	"1.2.3.04", "1.2.3.x", "1.2.3.0/24", "01.2.3.4", "010.0.0.1", "256.1.1.1",
	"1.2.3", "1.2.3.4.5", "1.2..4", "-1.2.3.4", " 1.2.3.4", "garbage", "",
}

// randomInfos is a sorted corpus of n distinct domains; each resolves
// (HasPDNS) with probability 3/4 to up to 4 addresses drawn from a small
// pool — a few /24s, so addresses repeat across domains and one domain
// often spans two segments — with an odd string now and then.
func randomInfos(src *simrand.Source, n int) []DomainInfo {
	infos := make([]DomainInfo, n)
	for i := range infos {
		info := DomainInfo{Domain: fmt.Sprintf("d%05d.com", i)}
		if src.Bool(0.75) {
			info.HasPDNS = true
			for k := src.Intn(5); k > 0; k-- {
				if src.Bool(0.1) {
					info.IPs = append(info.IPs, oddAddresses[src.Intn(len(oddAddresses))])
					continue
				}
				info.IPs = append(info.IPs, fmt.Sprintf("%d.%d.%d.%d",
					[]int{1, 10, 255}[src.Intn(3)], src.Intn(3), src.Intn(4), src.Intn(12)))
			}
		}
		infos[i] = info
	}
	return infos
}

// TestIPConcentrationMatchesMaps: the integer /24 aggregation equals the
// three-map reference on random corpora, the scale-100 corpus and the
// empty one.
func TestIPConcentrationMatchesMaps(t *testing.T) {
	check := func(name string, infos []DomainInfo) {
		t.Helper()
		if got, want := ipConcentration(infos), ipConcentrationMaps(infos); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ipConcentration = %+v\nwant %+v", name, got, want)
		}
	}
	check("empty", nil)
	check("unresolved", []DomainInfo{{Domain: "a.com"}, {Domain: "b.com", HasPDNS: true}})
	check("odd only", []DomainInfo{
		{Domain: "a.com", HasPDNS: true, IPs: oddAddresses},
		{Domain: "b.com", HasPDNS: true, IPs: []string{"1.2.3.x", "garbage"}},
	})
	check("odd beside canonical", []DomainInfo{
		{Domain: "a.com", HasPDNS: true, IPs: []string{"1.2.3.4", "1.2.3.x"}},
		{Domain: "b.com", HasPDNS: true, IPs: []string{"1.2.3.04"}},
		{Domain: "c.com", HasPDNS: true, IPs: []string{"1.2.3.4", "1.2.4.4", "9.9.9.9"}},
	})
	src := simrand.New(53)
	for round := 0; round < 200; round++ {
		check(fmt.Sprintf("random round %d", round), randomInfos(src, 1+src.Intn(60)))
	}
	check("scale-100 corpus", testIndex().idns)
}

// The store-walking references: the bodies the corpus index replaced,
// kept so the row aggregates are checked against the stores they were
// derived from rather than against themselves.

// filterTLD restricts domains to one TLD ("" for all, "itld" for every
// internationalized TLD) by parsing each name.
func filterTLD(domains []string, tld string) []string {
	if tld == "" {
		return domains
	}
	var out []string
	for _, d := range domains {
		got := idna.TLD(d)
		if got == tld || (tld == "itld" && idna.IsACELabel(got)) {
			out = append(out, d)
		}
	}
	return out
}

// refCut is a population/TLD cut from the dataset's name lists and
// blacklists alone, in corpus order.
func refCut(ds *Dataset, p Population, tld string) []string {
	switch p {
	case PopulationNonIDN:
		return filterTLD(ds.NonIDNs, tld)
	case PopulationMalicious:
		var mal []string
		for _, d := range ds.IDNs {
			if ds.Blacklists.IsMalicious(d) {
				mal = append(mal, d)
			}
		}
		return filterTLD(mal, tld)
	}
	return filterTLD(ds.IDNs, tld)
}

// activeDaysOf collects the active-time metric of the observed domains.
func activeDaysOf(s *pdns.Store, domains []string) []float64 {
	out := make([]float64, 0, len(domains))
	for _, d := range domains {
		if e, ok := s.Get(d); ok {
			out = append(out, e.ActiveDays())
		}
	}
	return out
}

// queriesOf collects the query-volume metric of the observed domains.
func queriesOf(s *pdns.Store, domains []string) []float64 {
	out := make([]float64, 0, len(domains))
	for _, d := range domains {
		if e, ok := s.Get(d); ok {
			out = append(out, float64(e.Queries))
		}
	}
	return out
}

// refSeries is Index.Series looked up in the store over refCut.
func refSeries(ds *Dataset, active bool, p Population, tld string) []float64 {
	if active {
		return activeDaysOf(ds.PDNS, refCut(ds, p, tld))
	}
	return queriesOf(ds.PDNS, refCut(ds, p, tld))
}

// refTimeline is Index.Timeline with a WHOIS and a blacklist lookup per
// IDN.
func refTimeline(ds *Dataset) (all, malicious stats.Histogram) {
	all, malicious = make(stats.Histogram), make(stats.Histogram)
	for _, d := range ds.IDNs {
		rec, ok := ds.WHOIS.Get(d)
		if !ok || rec.Created.IsZero() {
			continue
		}
		all[rec.Created.Year()]++
		if ds.Blacklists.IsMalicious(d) {
			malicious[rec.Created.Year()]++
		}
	}
	return all, malicious
}

// refWHOISRecords looks every IDN up in the WHOIS store.
func refWHOISRecords(ds *Dataset) []*whois.Record {
	recs := []*whois.Record{}
	for _, d := range ds.IDNs {
		if rec, ok := ds.WHOIS.Get(d); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// refSharedCertificates is the Table VII ranking with a certificate
// lookup and a hostname verification per IDN.
func refSharedCertificates(ds *Dataset, k int) []SharedCN {
	counts := make(map[string]int)
	for _, d := range ds.IDNs {
		cert, ok := ds.Certs.Get(d)
		if !ok {
			continue
		}
		if cert.VerifyHostname(d) != nil {
			counts[cert.Subject.CommonName]++
		}
	}
	out := make([]SharedCN, 0, len(counts))
	for cn, n := range counts {
		out = append(out, SharedCN{CommonName: cn, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].CommonName < out[j].CommonName
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// refRegistrants is Index.registrants with a WHOIS store lookup per
// match.
func refRegistrants(ds *Dataset, matches []HomographMatch) RegistrantBreakdown {
	var out RegistrantBreakdown
	for _, m := range matches {
		rec, covered := ds.WHOIS.Get(m.Domain)
		if !covered {
			continue
		}
		out.WithWHOIS++
		switch {
		case rec.Privacy || rec.RegistrantEmail == "":
			out.Privacy++
		case strings.HasSuffix(rec.RegistrantEmail, "@"+m.Brand):
			out.Protective++
		default:
			out.Personal++
		}
	}
	return out
}

// classifyEach is the Table VI census with one full certs.Classify per
// domain: the reference the memoized census is checked against.
func classifyEach(ds *Dataset, domains []string) CertReport {
	var rep CertReport
	for _, d := range domains {
		cert, ok := ds.Certs.Get(d)
		if !ok {
			continue
		}
		rep.Total++
		switch certs.Classify(cert, d, zonegen.Snapshot, ds.Authority.Roots()) {
		case certs.ProblemNone:
			rep.Valid++
		case certs.ProblemExpired:
			rep.Expired++
		case certs.ProblemInvalidAuthority:
			rep.InvalidAuthority++
		case certs.ProblemInvalidCommonName:
			rep.InvalidCommonName++
		}
	}
	return rep
}

// TestActiveAndQuerySeries: the series references collect the store's
// active time and query volume of the observed domains in list order and
// skip the unobserved ones.
func TestActiveAndQuerySeries(t *testing.T) {
	day := func(d int) time.Time { return time.Date(2017, 1, d, 0, 0, 0, 0, time.UTC) }
	s := pdns.NewStore(0)
	s.Merge(pdns.Entry{Domain: "a.com", FirstSeen: day(1), LastSeen: day(11), Queries: 100})
	s.Merge(pdns.Entry{Domain: "b.com", FirstSeen: day(1), LastSeen: day(2), Queries: 5})
	domains := []string{"a.com", "b.com", "unseen.com"}
	if ad := activeDaysOf(s, domains); !reflect.DeepEqual(ad, []float64{10, 1}) {
		t.Errorf("activeDaysOf = %v", ad)
	}
	if qs := queriesOf(s, domains); !reflect.DeepEqual(qs, []float64{100, 5}) {
		t.Errorf("queriesOf = %v", qs)
	}
}

// cutTLDs are the TLD restrictions the differential tests cut by: the
// report's, one TLD no name carries, and one internationalized TLD.
func cutTLDs(ds *Dataset) []string {
	tlds := []string{"", "com", "net", "org", "itld", "example"}
	for _, d := range ds.IDNs {
		if tld := idna.TLD(d); idna.IsACELabel(tld) {
			return append(tlds, tld)
		}
	}
	return tlds
}

// TestSeriesMatchesStoreLookups: every population and TLD cut's series,
// the non-IDN cuts included, equals the store lookup over the
// name-parsed cut on the scale-100 universe; and each population's rows
// in a cut are exactly that cut's names.
func TestSeriesMatchesStoreLookups(t *testing.T) {
	ix := testIndex()
	if len(ix.nonIDNs) != len(testDS.NonIDNs) {
		t.Fatalf("index has %d non-IDN rows for %d non-IDNs", len(ix.nonIDNs), len(testDS.NonIDNs))
	}
	for i := range ix.nonIDNs {
		if ix.nonIDNs[i].Domain != testDS.NonIDNs[i] || ix.nonIDNs[i].DecodeOK {
			t.Fatalf("non-IDN row %d: %+v, want %q undecoded", i, ix.nonIDNs[i], testDS.NonIDNs[i])
		}
	}
	for _, p := range []Population{PopulationIDN, PopulationNonIDN, PopulationMalicious} {
		for _, tld := range cutTLDs(testDS) {
			var names []string
			for _, info := range ix.rows(p) {
				if inCut(&info, p, tld) {
					names = append(names, info.Domain)
				}
			}
			if want := refCut(testDS, p, tld); !reflect.DeepEqual(names, want) {
				t.Errorf("population %d, tld %q: rows name %d domains, the filter %d", p, tld, len(names), len(want))
			}
			for _, active := range []bool{true, false} {
				want := refSeries(testDS, active, p, tld)
				if len(want) == 0 && tld == "" {
					t.Fatalf("population %d: empty reference series", p)
				}
				if got := ix.Series(active, p, tld); !reflect.DeepEqual(got, want) {
					t.Errorf("Series(%v, %d, %q): %d values, the store lookup %d", active, p, tld, len(got), len(want))
				}
			}
		}
	}
}

// randomCut draws a random subset of IDNs in a random order, as a match
// list carries them.
func randomCut(src *simrand.Source, idns []string) []string {
	var out []string
	for _, d := range idns {
		if src.Bool(0.05) {
			out = append(out, d)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestMatchReadersMatchStoreLookups: what Figures 5 and 8, Table XIII's
// registrant breakdown and its blacklist count read from a match's row
// equals the store lookups, on the scale-100 universe's homograph matches
// and on random cuts of the IDNs under random brands.
func TestMatchReadersMatchStoreLookups(t *testing.T) {
	ix := testIndex()
	check := func(name string, matches []HomographMatch) {
		t.Helper()
		domains := make([]string, len(matches))
		for i, m := range matches {
			domains[i] = m.Domain
		}
		active, queries := ix.activity(domains)
		if want := activeDaysOf(testDS.PDNS, domains); !reflect.DeepEqual(active, want) {
			t.Errorf("%s: activity active days %d values, the store lookup %d", name, len(active), len(want))
		}
		if want := queriesOf(testDS.PDNS, domains); !reflect.DeepEqual(queries, want) {
			t.Errorf("%s: activity queries %d values, the store lookup %d", name, len(queries), len(want))
		}
		if got, want := ix.registrants(matches), refRegistrants(testDS, matches); got != want {
			t.Errorf("%s: registrants %+v, the store lookup %+v", name, got, want)
		}
		for _, d := range domains {
			if info, ok := ix.row(d); !ok || info.Domain != d || info.Malicious != testDS.Blacklists.IsMalicious(d) {
				t.Fatalf("%s: row(%q) = %v, %v", name, d, info, ok)
			}
		}
	}
	homo := NewStudy(testDS).matches().homograph
	if len(homo) == 0 {
		t.Fatal("no homograph matches on the scale-100 universe")
	}
	check("homograph matches", homo)
	src := simrand.New(54)
	brandsOf := []string{"apple.com", "google.com", "qq.com", "gmail.com", "163.com"}
	for round := 0; round < 20; round++ {
		var matches []HomographMatch
		for _, d := range randomCut(src, testDS.IDNs) {
			matches = append(matches, HomographMatch{Domain: d, Brand: brandsOf[src.Intn(len(brandsOf))]})
		}
		check(fmt.Sprintf("random cut %d", round), matches)
	}
	if _, ok := ix.row("not-in-the-corpus.example"); ok {
		t.Error("row found a name outside the corpus")
	}
}

// TestWHOISAndCertReadersMatchStoreLookups: the timeline, the Tables III
// and IV rankings and Table VII read from the rows equal their store
// walks on the scale-100 universe.
func TestWHOISAndCertReadersMatchStoreLookups(t *testing.T) {
	ix := testIndex()
	all, mal := ix.Timeline()
	if wantAll, wantMal := refTimeline(testDS); !reflect.DeepEqual(all, wantAll) || !reflect.DeepEqual(mal, wantMal) {
		t.Errorf("Timeline = %v | %v, the store walk %v | %v", all, mal, wantAll, wantMal)
	}
	got, want := ix.WHOISRecords(), refWHOISRecords(testDS)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WHOISRecords: %d records, the store walk %d", len(got), len(want))
	}
	for _, k := range []int{-1, 0, 5, 10} {
		if g, w := ix.SharedCertificates(k), refSharedCertificates(testDS, k); !reflect.DeepEqual(g, w) {
			t.Errorf("SharedCertificates(%d) = %v, the store walk %v", k, g, w)
		}
	}
}

// TestCertCensusVerifiesEachChainOnce: on every population cut of the
// scale-100 universe, the memoized census over the rows equals
// per-domain Classify over the name-parsed cut, and across the cuts each
// distinct certificate's chain is verified exactly once.
func TestCertCensusVerifiesEachChainOnce(t *testing.T) {
	ix := testIndex()
	roots := testDS.Authority.Roots()
	verified := make(map[*x509.Certificate]int)
	chain := memoChain(func(c *x509.Certificate) certs.Problem {
		verified[c]++
		return certs.CheckChain(c, zonegen.Snapshot, roots)
	})
	distinct := make(map[*x509.Certificate]struct{})
	for _, p := range []Population{PopulationIDN, PopulationNonIDN, PopulationMalicious} {
		domains := refCut(testDS, p, "")
		want := classifyEach(testDS, domains)
		if want.Total == 0 {
			t.Fatalf("population %d serves no certificates", p)
		}
		if got := certCensus(ix.rows(p), p, chain); got != want {
			t.Errorf("population %d: memoized census %+v, per-domain Classify %+v", p, got, want)
		}
		if got := ix.Certs(p); got != want {
			t.Errorf("population %d: Index.Certs %+v, per-domain Classify %+v", p, got, want)
		}
		for _, d := range domains {
			if c, ok := testDS.Certs.Get(d); ok {
				distinct[c] = struct{}{}
			}
		}
	}
	if len(verified) != len(distinct) {
		t.Errorf("verified %d certificates, the cuts serve %d distinct ones", len(verified), len(distinct))
	}
	for c, n := range verified {
		if n != 1 {
			t.Errorf("certificate %q verified %d times, want once", c.Subject.CommonName, n)
		}
	}
}

// TestConcurrentCensusesShareOneChainMemo: censuses of both populations
// run from many goroutines at once over one index share its chain memo.
// Every report equals the sequential one, and each distinct certificate's
// chain is verified once. The check writes an unguarded map, so under
// -race a memo that let two checks run at once fails too.
func TestConcurrentCensusesShareOneChainMemo(t *testing.T) {
	base := testIndex()
	roots := testDS.Authority.Roots()
	verified := make(map[*x509.Certificate]int)
	ix := &Index{ds: testDS, idns: base.idns, nonIDNs: base.nonIDNs,
		certChain: memoChain(func(c *x509.Certificate) certs.Problem {
			verified[c]++
			return certs.CheckChain(c, zonegen.Snapshot, roots)
		})}
	pops := []Population{PopulationIDN, PopulationNonIDN}
	want := make(map[Population]CertReport)
	distinct := make(map[*x509.Certificate]struct{})
	for _, p := range pops {
		want[p] = base.Certs(p)
		for _, info := range ix.rows(p) {
			if info.Cert != nil {
				distinct[info.Cert] = struct{}{}
			}
		}
	}
	const goroutines, rounds = 6, 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(pops))
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				p := pops[(g+r)%len(pops)]
				if got := ix.Certs(p); got != want[p] {
					errs <- fmt.Sprintf("population %d: concurrent census %+v, sequential %+v", p, got, want[p])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if len(verified) != len(distinct) {
		t.Errorf("verified %d certificates, the populations serve %d distinct ones", len(verified), len(distinct))
	}
	for c, n := range verified {
		if n != 1 {
			t.Errorf("certificate %q verified %d times, want once", c.Subject.CommonName, n)
		}
	}
}

// render runs one report section into a string.
func render(t *testing.T, section func(io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := section(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestIndexIsTheOneStoreReader: once a study is primed, its aggregates
// read only what the index pass carried. Emptying the WHOIS, passive-DNS,
// certificate and blacklist stores changes none of them — every series of
// every population and TLD, the timeline, the Tables III/IV rankings, both
// populations' certificate censuses, the hosting concentration and the
// language rows, and the rendered Figures 5 and 8 and Tables VII and XIII
// — against a study that kept its stores.
func TestIndexIsTheOneStoreReader(t *testing.T) {
	ds := *testDS
	st := NewStudy(&ds)
	if err := st.prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds.WHOIS, ds.PDNS, ds.Certs, ds.Blacklists = whois.NewStore(0), pdns.NewStore(0), certs.NewStore(0), blacklist.NewAggregate()
	kept := NewStudy(testDS)
	ix, keptIx := st.index(), kept.index()

	for _, p := range []Population{PopulationIDN, PopulationNonIDN, PopulationMalicious} {
		for _, tld := range cutTLDs(testDS) {
			for _, active := range []bool{true, false} {
				got, want := ix.Series(active, p, tld), keptIx.Series(active, p, tld)
				if len(want) == 0 && tld == "" {
					t.Fatalf("population %d: empty series", p)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Series(%v, %d, %q) after emptying the stores: %d values, want %d",
						active, p, tld, len(got), len(want))
				}
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Timeline", fmt.Sprint(ix.Timeline()), fmt.Sprint(keptIx.Timeline())},
		{"Table III ranking", whois.TopRegistrantEmails(ix.WHOISRecords(), 5), whois.TopRegistrantEmails(keptIx.WHOISRecords(), 5)},
		{"Table IV ranking", whois.TopRegistrars(ix.WHOISRecords(), 10), whois.TopRegistrars(keptIx.WHOISRecords(), 10)},
		{"registrar count", whois.RegistrarCount(ix.WHOISRecords()), whois.RegistrarCount(keptIx.WHOISRecords())},
		{"IDN certificates", ix.Certs(PopulationIDN), keptIx.Certs(PopulationIDN)},
		{"non-IDN certificates", ix.Certs(PopulationNonIDN), keptIx.Certs(PopulationNonIDN)},
		{"Concentration", ix.Concentration(), keptIx.Concentration()},
		{"LanguageRows", ix.LanguageRows(), keptIx.LanguageRows()},
		{"Figure 5", render(t, st.ReportFigure5), render(t, kept.ReportFigure5)},
		{"Figure 8", render(t, st.ReportFigure8), render(t, kept.ReportFigure8)},
		{"Table VII", render(t, st.ReportTable7), render(t, kept.ReportTable7)},
		{"Table XIII", render(t, st.ReportTable13), render(t, kept.ReportTable13)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s after emptying the stores:\n%v\nwant\n%v", c.name, c.got, c.want)
		}
	}
}
