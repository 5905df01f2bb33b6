package core

import (
	"crypto/x509"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"idnlab/internal/certs"
	"idnlab/internal/pdns"
	"idnlab/internal/simrand"
	"idnlab/internal/stats"
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
	check("scale-100 corpus", testIndex().infos)
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

// TestCertCensusVerifiesEachChainOnce: on every population cut of the
// scale-100 universe, the memoized census equals per-domain Classify,
// and across the cuts each distinct certificate's chain is verified
// exactly once.
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
		domains := ix.cut(p, "")
		want := classifyEach(testDS, domains)
		if want.Total == 0 {
			t.Fatalf("population %d serves no certificates", p)
		}
		if got := testDS.certCensus(domains, chain); got != want {
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

// TestIndexIsTheOnePDNSProbe: once the index is built, the IDN and
// malicious activity series and the Figure 4 statistics read only what
// the index carried — emptying the pDNS store changes none of them, and
// each series equals the store's own lookup over the cut.
func TestIndexIsTheOnePDNSProbe(t *testing.T) {
	ds := *testDS
	ix := NewStudy(&ds).index()
	ds.PDNS = pdns.NewStore(0)
	for _, p := range []Population{PopulationIDN, PopulationMalicious} {
		for _, tld := range []string{"", "com", "net", "org", "itld"} {
			for _, active := range []bool{true, false} {
				want := testDS.PDNS.QueriesOf(ix.cut(p, tld))
				if active {
					want = testDS.PDNS.ActiveDaysOf(ix.cut(p, tld))
				}
				if len(want) == 0 && tld == "" {
					t.Fatalf("population %d: empty reference series", p)
				}
				if got := ix.Series(active, p, tld); !reflect.DeepEqual(got, want) {
					t.Errorf("Series(%v, %d, %q) after emptying the store: %d values, want %d",
						active, p, tld, len(got), len(want))
				}
			}
		}
	}
	if got, want := ix.Concentration(), testIndex().Concentration(); !reflect.DeepEqual(got, want) {
		t.Errorf("Concentration after emptying the store: %d segments, %d IPs; want %d, %d",
			len(got.Segments), got.TotalIPs, len(want.Segments), want.TotalIPs)
	}
}
