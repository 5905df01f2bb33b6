package core

import (
	"sort"
	"strings"

	"idnlab/internal/certs"
	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/pdns"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
	"idnlab/internal/zonegen"
)

// LanguageRow is one row of the Table II reproduction.
type LanguageRow struct {
	Language    langid.Language `json:"language"`
	Count       int             `json:"count"`
	Rate        float64         `json:"rate"`
	Blacklisted int             `json:"blacklisted"`
	BlackRate   float64         `json:"blackRate"`
}

// Population selects a comparison population for the DNS-activity figures.
type Population int

// Populations of Figures 2 and 3.
const (
	PopulationIDN Population = iota + 1
	PopulationNonIDN
	PopulationMalicious
)

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

// IPConcentration aggregates the IDN corpus's resolved addresses into /24
// segments and returns the Figure 4 statistics: segment sizes sorted
// descending plus the cumulative-share curve.
type IPConcentration struct {
	Segments   []pdns.SegmentStat
	TotalIPs   int
	Cumulative []float64
}

// ipConcentration is the Figure 4 aggregation body, fed by the index's
// per-domain records so pDNS misses are skipped without a store probe.
func (ds *Dataset) ipConcentration(infos []DomainInfo) IPConcentration {
	ipsPerSeg := make(map[string]map[string]struct{})
	domainsPerSeg := make(map[string]map[string]struct{})
	allIPs := make(map[string]struct{})
	for i := range infos {
		if !infos[i].HasPDNS {
			continue
		}
		d := infos[i].Domain
		e, ok := ds.PDNS.Get(d)
		if !ok {
			continue
		}
		for _, ip := range e.IPs {
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

// Table V's sample: usageSampleSize names of a population, every
// stride-th of the sorted list (stride = len/usageSampleSize, at least
// 1), starting at usageSampleOffset mod stride.
const (
	usageSampleSize   = 500
	usageSampleOffset = 1
)

// usageSample is the Table V probe loop over a resolved domain list.
func (ds *Dataset) usageSample(domains []string) webprobe.Census {
	census := make(webprobe.Census)
	if len(domains) == 0 {
		return census
	}
	// Deterministic stride sample over the sorted population.
	stride := max(len(domains)/usageSampleSize, 1)
	taken := 0
	for i := usageSampleOffset % stride; i < len(domains) && taken < usageSampleSize; i += stride {
		resp := ds.Probe(domains[i])
		census[webprobe.Classify(resp)]++
		taken++
	}
	return census
}

// certCensus is the Table VI classification loop over a domain list.
// Domains without a certificate are skipped (the paper's denominators are
// downloaded certificates).
func (ds *Dataset) certCensus(domains []string) CertReport {
	var rep CertReport
	now := zonegen.Snapshot
	roots := ds.Authority.Roots()
	for _, d := range domains {
		cert, ok := ds.Certs.Get(d)
		if !ok {
			continue
		}
		rep.Total++
		switch certs.Classify(cert, d, now, roots) {
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

// CertReport is the Table VI row set for one population.
type CertReport struct {
	Total             int
	Valid             int
	Expired           int
	InvalidAuthority  int
	InvalidCommonName int
}

// ProblemRate is the fraction of certificates with any problem (the
// paper's ">97%" headline).
func (r CertReport) ProblemRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Total-r.Valid) / float64(r.Total)
}

// SharedCertificates ranks the common names of certificates shared across
// the IDN population — Table VII.
func (ds *Dataset) SharedCertificates(k int) []SharedCN {
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

// SharedCN is a Table VII row.
type SharedCN struct {
	CommonName string
	Count      int
}

// RegistrantProfile classifies the WHOIS registrant of a detected abuse
// domain, per the paper's §VI-C analysis: 73 of 1,111 homographs with
// WHOIS were registered by brand owners (protective), 171 under personal
// email addresses, and the rest behind WHOIS privacy.
type RegistrantProfile int

// Registrant categories.
const (
	RegistrantUnknown RegistrantProfile = iota
	RegistrantProtective
	RegistrantPersonal
	RegistrantPrivacy
)

// ClassifyRegistrant inspects the WHOIS record of a detected abuse domain
// against its impersonated brand. ok is false when WHOIS has no coverage.
func (ds *Dataset) ClassifyRegistrant(domain, brand string) (RegistrantProfile, bool) {
	rec, covered := ds.WHOIS.Get(domain)
	if !covered {
		return RegistrantUnknown, false
	}
	switch {
	case rec.Privacy || rec.RegistrantEmail == "":
		return RegistrantPrivacy, true
	case strings.HasSuffix(rec.RegistrantEmail, "@"+brand):
		return RegistrantProtective, true
	default:
		return RegistrantPersonal, true
	}
}

// RegistrantBreakdown aggregates registrant profiles over detected abuse
// domains, given each domain's impersonated brand.
type RegistrantBreakdown struct {
	WithWHOIS  int
	Protective int
	Personal   int
	Privacy    int
}

// BreakdownRegistrants runs ClassifyRegistrant over a match set.
func BreakdownRegistrants(ds *Dataset, domains, brandOf []string) RegistrantBreakdown {
	var out RegistrantBreakdown
	for i, d := range domains {
		profile, ok := ds.ClassifyRegistrant(d, brandOf[i])
		if !ok {
			continue
		}
		out.WithWHOIS++
		switch profile {
		case RegistrantProtective:
			out.Protective++
		case RegistrantPersonal:
			out.Personal++
		case RegistrantPrivacy:
			out.Privacy++
		}
	}
	return out
}
