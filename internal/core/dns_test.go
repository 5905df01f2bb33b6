package core

import (
	"testing"

	"idnlab/internal/dnssim"
	"idnlab/internal/webprobe"
)

func TestDNSConsistentWithProbe(t *testing.T) {
	// Every "not resolved" crawl outcome must correspond to a REFUSED
	// answer from the authoritative server, and every successful crawl to
	// NOERROR — the paper's §IV-D observation made mechanical.
	checked := 0
	for _, d := range testDS.IDNs {
		if checked >= 500 {
			break
		}
		checked++
		res, err := testDS.Resolver.LookupA(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		rcode := res.RCode
		resp := testDS.Probe(d)
		switch {
		case resp.Resolved && rcode != dnssim.RCodeNoError:
			t.Errorf("%s: resolved content but rcode %v", d, rcode)
		case !resp.Resolved && rcode != dnssim.RCodeRefused:
			t.Errorf("%s: unresolved but rcode %v (want REFUSED)", d, rcode)
		}
	}
}

func TestDNSUnregisteredNXDomain(t *testing.T) {
	res, err := testDS.Resolver.LookupA("definitely-not-registered-here.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnssim.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", res.RCode)
	}
}

func TestDNSAnswersMatchPassiveDNS(t *testing.T) {
	// For resolvable domains, the authoritative answers must be the same
	// addresses the passive-DNS feed observed.
	checked := 0
	for _, d := range testDS.IDNs {
		if checked >= 200 {
			break
		}
		res, err := testDS.Resolver.LookupA(d)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resolved() {
			continue
		}
		checked++
		entry, ok := testDS.PDNS.Get(d)
		if !ok {
			t.Fatalf("%s resolvable but absent from passive DNS", d)
		}
		inPDNS := make(map[string]bool, len(entry.IPs))
		for _, ip := range entry.IPs {
			inPDNS[ip] = true
		}
		for _, ip := range res.IPs {
			if !inPDNS[ip] {
				t.Errorf("%s: authoritative answer %s not in passive DNS %v", d, ip, entry.IPs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no resolvable domains checked")
	}
}

func TestUsageSampleUsesDNSPath(t *testing.T) {
	// The Table V "Not resolved" row now comes from actual REFUSED
	// responses; rerunning the census must still land near the paper's
	// 45.6%.
	census := testDS.UsageSample(PopulationIDN, 500, 1)
	rate := census.Rate(webprobe.NotResolved)
	if rate < 0.30 || rate > 0.60 {
		t.Errorf("not-resolved rate = %.3f, want ≈0.456", rate)
	}
}
