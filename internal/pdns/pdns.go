// Package pdns implements the passive-DNS substrate: per-domain aggregated
// lookup statistics of the kind the paper obtained from 360 DNS Pai and
// Farsight DNSDB. "Both data sources provide statistics of DNS look-ups
// aggregated per domain, which contain the number of look-ups and
// timestamps of the first and last lookup" (§III); responses also expose
// the resolved IP addresses used for the hosting-concentration analysis
// (Figure 4).
package pdns

import (
	"sort"
	"strings"
	"time"
)

// Entry is the aggregated passive-DNS view of one domain.
type Entry struct {
	// Domain is the queried name in ACE form.
	Domain string
	// FirstSeen and LastSeen bound the observation window.
	FirstSeen time.Time
	LastSeen  time.Time
	// Queries is the total number of observed look-ups.
	Queries int64
	// IPs holds the distinct IPv4 addresses seen in responses, dotted
	// quad form.
	IPs []string
}

// ActiveDays returns the paper's "active time" metric: the day span
// between first and last observed request.
func (e Entry) ActiveDays() float64 {
	if e.LastSeen.Before(e.FirstSeen) {
		return 0
	}
	return e.LastSeen.Sub(e.FirstSeen).Hours() / 24
}

// Store is an in-memory passive-DNS database. Build once, read many; not
// safe for concurrent mutation.
type Store struct {
	entries map[string]Entry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[string]Entry)}
}

// Merge folds an observation into the store: first/last seen widen, query
// counts add, IP sets union. Merging is commutative and associative.
func (s *Store) Merge(e Entry) {
	key := strings.ToLower(e.Domain)
	cur, ok := s.entries[key]
	if !ok {
		e.Domain = key
		e.IPs = dedupeIPs(e.IPs)
		s.entries[key] = e
		return
	}
	if !e.FirstSeen.IsZero() && (cur.FirstSeen.IsZero() || e.FirstSeen.Before(cur.FirstSeen)) {
		cur.FirstSeen = e.FirstSeen
	}
	if e.LastSeen.After(cur.LastSeen) {
		cur.LastSeen = e.LastSeen
	}
	cur.Queries += e.Queries
	cur.IPs = dedupeIPs(append(cur.IPs, e.IPs...))
	s.entries[key] = cur
}

func dedupeIPs(ips []string) []string {
	if len(ips) <= 1 {
		return ips
	}
	sort.Strings(ips)
	out := ips[:1]
	for _, ip := range ips[1:] {
		if ip != out[len(out)-1] {
			out = append(out, ip)
		}
	}
	return out
}

// Get looks up the entry for a domain. ok is false when the domain was
// never observed — common for parked IDNs.
func (s *Store) Get(domain string) (Entry, bool) {
	e, ok := s.entries[strings.ToLower(domain)]
	return e, ok
}

// ActiveDaysOf collects the active-time metric for the given domains,
// skipping unobserved ones — the per-population series of Figures 2/5/8.
func (s *Store) ActiveDaysOf(domains []string) []float64 {
	out := make([]float64, 0, len(domains))
	for _, d := range domains {
		if e, ok := s.Get(d); ok {
			out = append(out, e.ActiveDays())
		}
	}
	return out
}

// QueriesOf collects the query-volume metric for the given domains,
// skipping unobserved ones — the series of Figures 3/5/8.
func (s *Store) QueriesOf(domains []string) []float64 {
	out := make([]float64, 0, len(domains))
	for _, d := range domains {
		if e, ok := s.Get(d); ok {
			out = append(out, float64(e.Queries))
		}
	}
	return out
}

// Slash24 maps a dotted-quad IPv4 address to its /24 network segment
// ("a.b.c.0/24"). Malformed addresses map to themselves.
func Slash24(ip string) string {
	last := strings.LastIndexByte(ip, '.')
	if last < 0 {
		return ip
	}
	return ip[:last] + ".0/24"
}

// SegmentStat is the per-/24 aggregation row behind Figure 4.
type SegmentStat struct {
	// Segment is the /24 network, e.g. "192.0.2.0/24".
	Segment string
	// Domains is the number of distinct domains hosted in the segment.
	Domains int
	// IPs is the number of distinct addresses observed in the segment.
	IPs int
}
