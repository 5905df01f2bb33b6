package core

import (
	"crypto/x509"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"idnlab/internal/certs"
	"idnlab/internal/langid"
	"idnlab/internal/pdns"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
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

// IPConcentration aggregates the IDN corpus's resolved addresses into /24
// segments and returns the Figure 4 statistics: segment sizes sorted
// descending plus the cumulative-share curve.
type IPConcentration struct {
	Segments   []pdns.SegmentStat
	TotalIPs   int
	Cumulative []float64
}

// ipConcentration is the Figure 4 aggregation over the passive-DNS
// addresses the index pass carried for each domain. Canonical dotted
// quads are counted as integers: the sorted, distinct addresses give the
// total and each /24's address count, the sorted, distinct (ip>>8, domain
// index) pairs give each /24's domain count, and a segment's name is
// formatted once. Any other string (a leading zero, a malformed address)
// keeps pdns.Slash24's meaning through oddSegments, merged by segment
// name. infos must name distinct domains, as Dataset.IDNs does.
func ipConcentration(infos []DomainInfo) IPConcentration {
	var ips []uint32
	var pairs []uint64
	var odd oddSegments
	for i := range infos {
		for _, s := range infos[i].IPs {
			ip, ok := parseQuad(s)
			if !ok {
				odd.add(s, i)
				continue
			}
			ips = append(ips, ip)
			pairs = append(pairs, uint64(ip>>8)<<32|uint64(i))
		}
	}
	slices.Sort(ips)
	ips = slices.Compact(ips)
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	out := IPConcentration{TotalIPs: len(ips)}
	buf := make([]byte, 0, len("255.255.255.0/24"))
	for len(pairs) > 0 {
		prefix := uint32(pairs[0] >> 32)
		nDomains := 1
		for nDomains < len(pairs) && uint32(pairs[nDomains]>>32) == prefix {
			nDomains++
		}
		nIPs := 1
		for nIPs < len(ips) && ips[nIPs]>>8 == prefix {
			nIPs++
		}
		stat := pdns.SegmentStat{Segment: string(appendSlash24(buf[:0], prefix)), Domains: nDomains, IPs: nIPs}
		if o := odd[stat.Segment]; o != nil {
			out.TotalIPs += len(o.ips)
			stat.IPs += len(o.ips)
			stat.Domains += len(o.domains) - sharedDomains(pairs[:nDomains], o.domains)
			delete(odd, stat.Segment)
		}
		out.Segments = append(out.Segments, stat)
		pairs, ips = pairs[nDomains:], ips[nIPs:]
	}
	for seg, o := range odd {
		out.TotalIPs += len(o.ips)
		out.Segments = append(out.Segments, pdns.SegmentStat{Segment: seg, Domains: len(o.domains), IPs: len(o.ips)})
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

// parseQuad parses a canonical dotted quad: four decimal octets of at
// most 255, without a sign or a leading zero. Exactly these strings are
// their own canonical form, so distinct addresses are distinct integers
// and a segment's name is its prefix's formatting.
func parseQuad(s string) (uint32, bool) {
	var ip uint32
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if s == "" || s[0] != '.' {
				return 0, false
			}
			s = s[1:]
		}
		n, v := 0, 0
		for n < len(s) && n < 3 && '0' <= s[n] && s[n] <= '9' {
			v = v*10 + int(s[n]-'0')
			n++
		}
		if n == 0 || v > 255 || (n > 1 && s[0] == '0') {
			return 0, false
		}
		ip = ip<<8 | uint32(v)
		s = s[n:]
	}
	return ip, s == ""
}

// appendSlash24 appends the pdns.Slash24 name of a 24-bit prefix.
func appendSlash24(b []byte, prefix uint32) []byte {
	b = strconv.AppendUint(b, uint64(prefix>>16), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(prefix>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(prefix&0xff), 10)
	return append(b, ".0/24"...)
}

// oddSegments aggregates the addresses that are not canonical dotted
// quads by their pdns.Slash24 segment name, which may also name a
// canonical segment ("1.2.3.x" falls in 1.2.3.0/24). A non-canonical
// string never equals a canonical one, so its addresses only add.
type oddSegments map[string]*oddSegment

type oddSegment struct {
	ips     map[string]struct{}
	domains []int // ascending, distinct
}

func (m *oddSegments) add(ip string, domain int) {
	if *m == nil {
		*m = make(oddSegments)
	}
	seg := pdns.Slash24(ip)
	o := (*m)[seg]
	if o == nil {
		o = &oddSegment{ips: make(map[string]struct{})}
		(*m)[seg] = o
	}
	o.ips[ip] = struct{}{}
	if n := len(o.domains); n == 0 || o.domains[n-1] != domain {
		o.domains = append(o.domains, domain)
	}
}

// sharedDomains counts the domain indexes in both one segment's sorted
// (prefix, domain) pairs and an ascending index list.
func sharedDomains(pairs []uint64, domains []int) int {
	n, j := 0, 0
	for _, p := range pairs {
		d := int(uint32(p))
		for j < len(domains) && domains[j] < d {
			j++
		}
		if j < len(domains) && domains[j] == d {
			n++
		}
	}
	return n
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

// certCensus is the Table VI classification loop over the rows of
// population p: chain is certs.CheckChain at the snapshot (memoized per
// certificate by the index), and a sound chain takes each domain's own
// hostname outcome from its row. Domains without a certificate are
// skipped (the paper's denominators are downloaded certificates).
func certCensus(rows []DomainInfo, p Population, chain func(*x509.Certificate) certs.Problem) CertReport {
	var rep CertReport
	for i := range rows {
		info := &rows[i]
		if info.Cert == nil || !inCut(info, p, "") {
			continue
		}
		rep.Total++
		problem := chain(info.Cert)
		if problem == certs.ProblemNone && !info.CertHostOK {
			problem = certs.ProblemInvalidCommonName
		}
		switch problem {
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

// memoChain returns check memoized per certificate, so the censuses run
// one chain verification per distinct certificate however many domains
// serve it. Safe for concurrent use: the lock is held across check, so
// two censuses never verify the same certificate twice.
func memoChain(check func(*x509.Certificate) certs.Problem) func(*x509.Certificate) certs.Problem {
	var mu sync.Mutex
	seen := make(map[*x509.Certificate]certs.Problem)
	return func(c *x509.Certificate) certs.Problem {
		mu.Lock()
		defer mu.Unlock()
		p, ok := seen[c]
		if !ok {
			p = check(c)
			seen[c] = p
		}
		return p
	}
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
// the IDN population — Table VII: the certificates an IDN row serves
// although they are not valid for its name.
func (ix *Index) SharedCertificates(k int) []SharedCN {
	counts := make(map[string]int)
	for i := range ix.idns {
		if info := &ix.idns[i]; info.Cert != nil && !info.CertHostOK {
			counts[info.Cert.Subject.CommonName]++
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

// RegistrantBreakdown classifies the WHOIS registrants of detected abuse
// domains against each domain's impersonated brand, per the paper's §VI-C
// analysis: 73 of 1,111 homographs with WHOIS were registered by brand
// owners (protective), 171 under personal email addresses, and the rest
// behind WHOIS privacy.
type RegistrantBreakdown struct {
	WithWHOIS  int
	Protective int
	Personal   int
	Privacy    int
}

// registrants breaks down the registrants of the homograph matches with
// WHOIS coverage, reading each match's record from its index row.
func (ix *Index) registrants(matches []HomographMatch) RegistrantBreakdown {
	var out RegistrantBreakdown
	for _, m := range matches {
		info, ok := ix.row(m.Domain)
		if !ok || info.WHOIS == nil {
			continue
		}
		out.WithWHOIS++
		switch rec := info.WHOIS; {
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
