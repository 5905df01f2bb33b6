// Package core implements the paper's measurement pipeline: assembling the
// IDN dataset from zone files, correlating it with WHOIS, passive DNS,
// blacklists, certificates and web content, and running the two abuse
// detectors (homograph, §VI; Type-1 semantic, §VII).
//
// The pipeline consumes only materialized data sources — zone files and
// the auxiliary stores — never the generator's ground truth, mirroring how
// the authors consumed their feeds.
package core

import (
	"fmt"
	"sort"
	"sync"

	"idnlab/internal/blacklist"
	"idnlab/internal/certs"
	"idnlab/internal/dnssim"
	"idnlab/internal/idna"
	"idnlab/internal/pdns"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
	"idnlab/internal/zonefile"
	"idnlab/internal/zonegen"
)

// Dataset is the assembled study corpus: the discovered IDN population,
// the sampled non-IDN comparison population, and the auxiliary stores.
type Dataset struct {
	// IDNs holds the ACE names discovered by the zone scan, sorted.
	IDNs []string
	// NonIDNs holds the sampled comparison population, sorted.
	NonIDNs []string
	// PerTLD is the Table I accounting, one row per scanned zone group.
	PerTLD []TLDRow
	// Auxiliary stores.
	WHOIS      *whois.Store
	PDNS       *pdns.Store
	Blacklists *blacklist.Aggregate
	Certs      *certs.Store
	Authority  *certs.Authority
	// DNS is the authoritative server the crawler resolves against;
	// Resolver is a stub resolver wired to it in memory.
	DNS      *dnssim.Server
	Resolver *dnssim.Resolver
	// Registry is retained for serving web content (the "live Internet"
	// the crawler probes); measurements do not read its ground truth.
	Registry *zonegen.Registry

	// IndexWorkers bounds the parallelism of the corpus-index build pass
	// (GOMAXPROCS when zero). Set it before the first Index() call.
	IndexWorkers int

	idxOnce sync.Once
	idx     *Index
}

// TLDRow is one row of the Table I reproduction.
type TLDRow struct {
	TLD         string `json:"tld"`
	SLDs        int    `json:"slds"`
	IDNs        int    `json:"idns"`
	WHOIS       int    `json:"whois"`
	Blacklisted int    `json:"blacklisted"`
}

// Assemble builds the Dataset from a generated registry: it renders the
// zone files, scans them for IDNs exactly as the paper scanned Verisign
// and PIR snapshots, and materializes every auxiliary source.
func Assemble(reg *zonegen.Registry) (*Dataset, error) {
	ds := &Dataset{Registry: reg}

	zones := reg.BuildZones()
	gtlds := map[string]bool{"com": true, "net": true, "org": true}
	var itldIDNs, itldSLDs int
	perTLD := make(map[string]*TLDRow)
	for origin, zone := range zones {
		scan := zonefile.Scan(zone)
		if gtlds[origin] {
			row := &TLDRow{TLD: origin, SLDs: reg.SLDTotals[origin], IDNs: len(scan.IDNs)}
			perTLD[origin] = row
			ds.IDNs = append(ds.IDNs, scan.IDNs...)
			// Non-IDN sample: the scanned SLDs that are not IDNs.
			idnSet := make(map[string]bool, len(scan.IDNs))
			for _, d := range scan.IDNs {
				idnSet[d] = true
			}
			for _, sld := range zone.SLDs() {
				if !idnSet[sld] {
					ds.NonIDNs = append(ds.NonIDNs, sld)
				}
			}
			continue
		}
		itldIDNs += len(scan.IDNs)
		itldSLDs += scan.SLDCount
		ds.IDNs = append(ds.IDNs, scan.IDNs...)
	}
	sort.Strings(ds.IDNs)
	sort.Strings(ds.NonIDNs)

	ds.WHOIS = reg.BuildWHOIS()
	ds.PDNS = reg.BuildPDNS()
	ds.Blacklists = reg.BuildBlacklists()
	ds.DNS = reg.BuildDNS()
	ds.Resolver = dnssim.NewInMemoryResolver(ds.DNS)

	authority, err := certs.NewAuthority(reg.Cfg.Seed^0x5ead, reg.Cfg.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("core: certificate authority: %w", err)
	}
	ds.Authority = authority
	store, err := reg.BuildCerts(authority)
	if err != nil {
		return nil, fmt.Errorf("core: certificates: %w", err)
	}
	ds.Certs = store

	// Table I accounting.
	for _, tld := range []string{"com", "net", "org"} {
		row := perTLD[tld]
		if row == nil {
			row = &TLDRow{TLD: tld}
		}
		row.WHOIS = countCovered(ds.WHOIS, ds.IDNs, tld)
		row.Blacklisted = countFlagged(ds.Blacklists, ds.IDNs, tld)
		ds.PerTLD = append(ds.PerTLD, *row)
	}
	itldRow := TLDRow{TLD: "itld", SLDs: itldSLDs, IDNs: itldIDNs}
	itldRow.WHOIS = countCoveredITLD(ds.WHOIS, ds.IDNs)
	itldRow.Blacklisted = countFlaggedITLD(ds.Blacklists, ds.IDNs)
	ds.PerTLD = append(ds.PerTLD, itldRow)
	return ds, nil
}

func countCovered(s *whois.Store, domains []string, tld string) int {
	n := 0
	for _, d := range domains {
		if idna.TLD(d) != tld {
			continue
		}
		if _, ok := s.Get(d); ok {
			n++
		}
	}
	return n
}

func countCoveredITLD(s *whois.Store, domains []string) int {
	n := 0
	for _, d := range domains {
		if !idna.IsACELabel(idna.TLD(d)) {
			continue
		}
		if _, ok := s.Get(d); ok {
			n++
		}
	}
	return n
}

func countFlagged(agg *blacklist.Aggregate, domains []string, tld string) int {
	n := 0
	for _, d := range domains {
		if idna.TLD(d) == tld && agg.IsMalicious(d) {
			n++
		}
	}
	return n
}

func countFlaggedITLD(agg *blacklist.Aggregate, domains []string) int {
	n := 0
	for _, d := range domains {
		if idna.IsACELabel(idna.TLD(d)) && agg.IsMalicious(d) {
			n++
		}
	}
	return n
}

// Probe crawls one domain of the dataset: it resolves the name through
// the DNS substrate first (observing REFUSED/NXDOMAIN exactly as the
// paper's crawler did) and fetches the homepage only on success.
func (ds *Dataset) Probe(domain string) webprobe.Response {
	res, err := ds.Resolver.LookupA(domain)
	if err != nil || !res.Resolved() {
		return webprobe.Response{}
	}
	d, ok := ds.Registry.Lookup(domain)
	if !ok {
		return webprobe.Response{}
	}
	return ds.Registry.Serve(d)
}
