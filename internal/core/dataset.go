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
	"context"
	"fmt"
	"sort"
	"sync"

	"idnlab/internal/blacklist"
	"idnlab/internal/certs"
	"idnlab/internal/idna"
	"idnlab/internal/pdns"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
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
	// Registry is retained as the "live Internet" the crawler probes:
	// Probe reads a domain's hosting state, which decides whether the
	// name resolves and what it serves.
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
//
// The zone scan and the four store builders each read the finished,
// immutable registry and write only their own field, so they run side by
// side, GOMAXPROCS wide; each is sequential inside (the CA's serial and
// the passive-DNS noise stream keep their order), which makes the result
// independent of the width.
func Assemble(reg *zonegen.Registry) (*Dataset, error) {
	ds := &Dataset{Registry: reg}
	gtlds := []string{"com", "net", "org"}
	perTLD := make(map[string]*TLDRow, len(gtlds))
	for _, tld := range gtlds {
		perTLD[tld] = &TLDRow{TLD: tld}
	}
	itldRow := TLDRow{TLD: "itld"}
	// Longest first, so two workers finish together.
	_, err := runAll(context.Background(), "assemble", 0, []func() error{
		func() error {
			authority, err := certs.NewAuthority(reg.Cfg.Seed^0x5ead, zonegen.Snapshot)
			if err != nil {
				return fmt.Errorf("core: certificate authority: %w", err)
			}
			ds.Authority = authority
			if ds.Certs, err = reg.BuildCerts(authority); err != nil {
				return fmt.Errorf("core: certificates: %w", err)
			}
			return nil
		},
		func() error {
			for origin, zone := range reg.BuildZones() {
				idns, others := zone.Partition()
				ds.IDNs = append(ds.IDNs, idns...)
				if row := perTLD[origin]; row != nil {
					row.SLDs, row.IDNs = reg.SLDTotals[origin], len(idns)
					// Non-IDN sample: the scanned SLDs that are not IDNs.
					ds.NonIDNs = append(ds.NonIDNs, others...)
					continue
				}
				itldRow.IDNs += len(idns)
				itldRow.SLDs += len(idns) + len(others)
			}
			sort.Strings(ds.IDNs)
			sort.Strings(ds.NonIDNs)
			return nil
		},
		func() error { ds.PDNS = reg.BuildPDNS(); return nil },
		func() error { ds.WHOIS = reg.BuildWHOIS(); return nil },
		func() error { ds.Blacklists = reg.BuildBlacklists(); return nil },
	})
	if err != nil {
		return nil, err
	}

	// Table I accounting.
	for _, tld := range gtlds {
		row := perTLD[tld]
		row.WHOIS = countCovered(ds.WHOIS, ds.IDNs, tld)
		row.Blacklisted = countFlagged(ds.Blacklists, ds.IDNs, tld)
		ds.PerTLD = append(ds.PerTLD, *row)
	}
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

// Probe crawls one domain of the dataset and returns what the crawler
// observes. Resolution is the registry's hosting state: an unknown name,
// or one with no A records, answers the zero (unresolved) response, as
// does a domain whose name servers refuse it (the NotResolved profile,
// §IV-D); every other name is fetched from the registry.
func (ds *Dataset) Probe(domain string) webprobe.Response {
	d, ok := ds.Registry.Lookup(domain)
	if !ok || len(d.IPs) == 0 {
		return webprobe.Response{}
	}
	return ds.Registry.Serve(d)
}
