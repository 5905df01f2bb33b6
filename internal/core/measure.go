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
	"idnlab/internal/whois"
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

// LanguageBreakdown returns the Table II rows sorted by overall volume
// descending: every IDN's second-level label classified by the
// process-wide langid.Default() model, with English and unclassified
// labels grouped into langid.Other. The corpus index's build pass already
// classified every SLD label, so the breakdown is one memoized
// aggregation.
func (ds *Dataset) LanguageBreakdown() []LanguageRow {
	return ds.Index().LanguageRows()
}

// CreationTimeline returns the Figure 1 histograms: IDN registrations per
// creation year, overall and blacklisted, from WHOIS records. Computed
// once by the corpus index; both histograms are read-only.
func (ds *Dataset) CreationTimeline() (all, malicious stats.Histogram) {
	return ds.Index().Timeline()
}

// idnWHOIS returns the WHOIS sub-store restricted to the IDN corpus, the
// population Tables III and IV rank. The store is built once by the
// corpus index and shared; before the index each caller rebuilt it.
func (ds *Dataset) idnWHOIS() *whois.Store {
	return ds.Index().IDNWHOIS()
}

// TopRegistrants returns the Table III ranking: registrant emails by IDN
// count.
func (ds *Dataset) TopRegistrants(k int) []whois.GroupCount {
	return ds.idnWHOIS().TopRegistrantEmails(k)
}

// TopRegistrars returns the Table IV ranking: registrars by IDN count,
// plus the share of the WHOIS-covered population each holds.
func (ds *Dataset) TopRegistrars(k int) ([]whois.GroupCount, int) {
	sub := ds.idnWHOIS()
	return sub.TopRegistrars(k), sub.Len()
}

// RegistrarCount returns the number of distinct registrars in the IDN
// corpus (paper: over 700).
func (ds *Dataset) RegistrarCount() int {
	return ds.idnWHOIS().RegistrarCount()
}

// Population selects a comparison population for the DNS-activity figures.
type Population int

// Populations of Figures 2 and 3.
const (
	PopulationIDN Population = iota + 1
	PopulationNonIDN
	PopulationMalicious
)

// ActiveTimeSeries returns the Figure 2 series for a population,
// optionally restricted to one TLD ("" for all). Each (population, TLD)
// cut is computed once by the corpus index; callers must treat the slice
// as read-only.
func (ds *Dataset) ActiveTimeSeries(p Population, tld string) []float64 {
	return ds.Index().Series(true, p, tld)
}

// QueryVolumeSeries returns the Figure 3 series for a population,
// memoized like ActiveTimeSeries. Read-only.
func (ds *Dataset) QueryVolumeSeries(p Population, tld string) []float64 {
	return ds.Index().Series(false, p, tld)
}

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

// IPConcentrationStats computes Figure 4 over the IDN population. The
// aggregation runs once, behind the corpus index. Read-only.
func (ds *Dataset) IPConcentrationStats() IPConcentration {
	return ds.Index().Concentration()
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

// UsageSample crawls a deterministic sample of a population and classifies
// the responses — the Table V methodology (stratified sampling + manual
// classification, here automated). Each (population, size, seed) census is
// probed once, behind the corpus index.
func (ds *Dataset) UsageSample(p Population, sampleSize int, seed uint64) webprobe.Census {
	return ds.Index().Usage(p, sampleSize, seed)
}

// usageSample is the Table V probe loop over a resolved domain list.
func (ds *Dataset) usageSample(domains []string, sampleSize int, seed uint64) webprobe.Census {
	census := make(webprobe.Census)
	if len(domains) == 0 || sampleSize <= 0 {
		return census
	}
	// Deterministic stride sample over the sorted population.
	stride := len(domains) / sampleSize
	if stride < 1 {
		stride = 1
	}
	offset := int(seed) % stride
	taken := 0
	for i := offset; i < len(domains) && taken < sampleSize; i += stride {
		resp := ds.Probe(domains[i])
		census[webprobe.Classify(resp)]++
		taken++
	}
	return census
}

// CertCensus classifies the certificates served by a population — the
// Table VI reproduction. Domains without a certificate are skipped (the
// paper's denominators are downloaded certificates). Each population's
// census is computed once, behind the corpus index.
func (ds *Dataset) CertCensus(p Population) CertReport {
	return ds.Index().Certs(p)
}

// certCensus is the Table VI classification loop over a domain list.
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
