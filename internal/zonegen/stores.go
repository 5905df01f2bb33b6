package zonegen

import (
	"crypto/x509"
	"fmt"
	"strings"

	"idnlab/internal/blacklist"
	"idnlab/internal/brands"
	"idnlab/internal/certs"
	"idnlab/internal/confusables"
	"idnlab/internal/idna"
	"idnlab/internal/pdns"
	"idnlab/internal/simrand"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
	"idnlab/internal/zonefile"
)

// The Build* methods materialize each auxiliary data source from the
// ground truth. The measurement pipeline consumes only these outputs.

// BuildZones renders one zone file per TLD containing the materialized
// SLDs (all IDNs plus the sampled non-IDNs), keyed by origin. The analytic
// SLD totals for the full zones are in SLDTotals.
func (r *Registry) BuildZones() map[string]*zonefile.Zone {
	zones := make(map[string]*zonefile.Zone)
	get := func(origin string) *zonefile.Zone {
		z, ok := zones[origin]
		if !ok {
			z = &zonefile.Zone{Origin: origin, DefaultTTL: 86400}
			zones[origin] = z
		}
		return z
	}
	// Ensure all 53 iTLD zones exist even if empty at small scale.
	for _, itld := range r.ITLDs {
		get(itld)
	}
	perZone := make(map[string]int, len(zones))
	for i := range r.Domains {
		perZone[r.Domains[i].TLD]++
	}
	for origin, n := range perZone {
		get(origin).Records = make([]zonefile.Record, 0, 2*n)
	}
	for i := range r.Domains {
		d := &r.Domains[i]
		z := zones[d.TLD]
		owner := strings.TrimSuffix(d.ACE, "."+d.TLD)
		z.Records = append(z.Records,
			zonefile.Record{Owner: owner, Type: "NS", Data: "ns1.dns-host.net."},
			zonefile.Record{Owner: owner, Type: "NS", Data: "ns2.dns-host.net."},
		)
	}
	return zones
}

// BuildWHOIS materializes the WHOIS database with the paper's coverage
// gaps: only domains the crawl reached are present.
func (r *Registry) BuildWHOIS() *whois.Store {
	s := whois.NewStore()
	for i := range r.Domains {
		d := &r.Domains[i]
		if !d.HasWHOIS {
			continue
		}
		s.Put(whois.Record{
			Domain:          d.ACE,
			Registrar:       d.Registrar,
			RegistrantEmail: d.RegistrantEmail,
			Privacy:         d.Privacy,
			Created:         d.Created,
			Expires:         d.Created.AddDate(1+int(d.Created.Year())%3, 0, 0),
			NameServers:     []string{"ns1.dns-host.net", "ns2.dns-host.net"},
		})
	}
	return s
}

// BuildBlacklists materializes the three feeds and their union.
func (r *Registry) BuildBlacklists() *blacklist.Aggregate {
	feeds := map[string]*blacklist.Feed{
		blacklist.FeedVirusTotal: blacklist.NewFeed(),
		blacklist.Feed360:        blacklist.NewFeed(),
		blacklist.FeedBaidu:      blacklist.NewFeed(),
	}
	for i := range r.Domains {
		d := &r.Domains[i]
		for _, f := range d.Feeds {
			feeds[f].Add(d.ACE)
		}
	}
	return blacklist.NewAggregate(
		feeds[blacklist.FeedVirusTotal], feeds[blacklist.Feed360], feeds[blacklist.FeedBaidu])
}

// BuildPDNS materializes the passive-DNS store: every registered domain's
// aggregate, plus stray-traffic noise for a small fraction of the
// *unregistered* homographic candidate space (Figure 6's observation that
// queries to unregistered IDNs exist but are very rare).
func (r *Registry) BuildPDNS() *pdns.Store {
	s := pdns.NewStore()
	for i := range r.Domains {
		d := &r.Domains[i]
		s.Merge(pdns.Entry{
			Domain:    d.ACE,
			FirstSeen: d.FirstSeen,
			LastSeen:  d.LastSeen,
			Queries:   d.Queries,
			IPs:       append([]string(nil), d.IPs...),
		})
	}
	src := simrand.New(r.Cfg.Seed).Fork("unregistered-noise")
	tab := confusables.Default()
	for _, b := range brands.TopK(100) {
		for _, v := range tab.Variants(b.Label()) {
			ace, err := idna.ToASCIILabel(v)
			if err != nil {
				continue
			}
			name := ace + ".com"
			if _, registered := r.Lookup(name); registered {
				continue
			}
			if !src.Bool(UnregisteredNoise) {
				continue
			}
			first := Snapshot.AddDate(0, 0, -src.Intn(30)-1)
			s.Merge(pdns.Entry{
				Domain:    name,
				FirstSeen: first,
				LastSeen:  first.AddDate(0, 0, src.Intn(5)),
				Queries:   1 + int64(src.Intn(4)),
			})
		}
	}
	return s
}

// BuildCerts mints and deploys the certificate population. Shared
// certificates are minted once per common name and deployed across all
// their domains, reproducing the Table VII concentration.
func (r *Registry) BuildCerts(authority *certs.Authority) (*certs.Store, error) {
	s := certs.NewStore()
	sharedCache := make(map[string]*x509.Certificate)
	for i := range r.Domains {
		d := &r.Domains[i]
		switch d.Cert {
		case CertNone:
			continue
		case CertValid:
			cert, err := authority.Issue(d.ACE)
			if err != nil {
				return nil, fmt.Errorf("zonegen: issue valid cert for %s: %w", d.ACE, err)
			}
			s.Deploy(d.ACE, cert)
		case CertExpired:
			cert, err := authority.Issue(d.ACE, certs.Expired())
			if err != nil {
				return nil, fmt.Errorf("zonegen: issue expired cert for %s: %w", d.ACE, err)
			}
			s.Deploy(d.ACE, cert)
		case CertSelfSigned:
			cert, err := authority.Issue(d.ACE, certs.SelfSigned())
			if err != nil {
				return nil, fmt.Errorf("zonegen: issue self-signed cert for %s: %w", d.ACE, err)
			}
			s.Deploy(d.ACE, cert)
		case CertShared:
			cn := d.SharedCN
			if cn == "" {
				cn = TableVIISharedCNs[0].CN
			}
			cert, ok := sharedCache[cn]
			if !ok {
				minted, err := authority.Issue(cn)
				if err != nil {
					return nil, fmt.Errorf("zonegen: issue shared cert for %s: %w", cn, err)
				}
				cert = minted
				sharedCache[cn] = cert
			}
			s.Deploy(d.ACE, cert)
		}
	}
	return s, nil
}

// Serve returns the web response for one registry domain, as the crawler
// would observe it.
func (r *Registry) Serve(d *Domain) webprobe.Response {
	variant := uint64(0)
	for i := 0; i < len(d.ACE); i++ {
		variant = variant*131 + uint64(d.ACE[i])
	}
	resp := webprobe.Serve(d.Hosting, d.ACE, variant)
	if d.Cert == CertShared && resp.Resolved {
		resp.ServerCN = d.SharedCN
	}
	return resp
}

// Lookup finds a registry domain by ACE name. The first call builds a
// map index over Domains (previously every Lookup was an O(N) scan, paid
// once per crawled domain by the usage census); the index is built once
// and safe for concurrent Lookups, provided Domains is no longer mutated
// — generation completes before any Lookup.
func (r *Registry) Lookup(ace string) (*Domain, bool) {
	r.byACEOnce.Do(func() {
		r.byACE = make(map[string]int, len(r.Domains))
		for i := range r.Domains {
			// First entry wins, matching the original scan order.
			if _, dup := r.byACE[r.Domains[i].ACE]; !dup {
				r.byACE[r.Domains[i].ACE] = i
			}
		}
	})
	if i, ok := r.byACE[ace]; ok {
		return &r.Domains[i], true
	}
	return nil, false
}
