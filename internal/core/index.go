package core

import (
	"context"
	"crypto/x509"
	"slices"
	"sort"
	"sync"

	"idnlab/internal/certs"
	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/pipeline"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
	"idnlab/internal/zonegen"
)

// DomainInfo is the per-name derived state the corpus index materializes
// in its one pass over both populations: TLD classification, language,
// auxiliary-store membership, the passive-DNS aggregate and the deployed
// certificate every report section would otherwise recompute or look up
// for itself. The pass is the study's one reader of the WHOIS, passive-DNS,
// certificate and blacklist stores for a corpus name. The flags sit last,
// so a row packs into 120 bytes.
type DomainInfo struct {
	// Domain is the ACE name, identical to the Dataset.IDNs or
	// Dataset.NonIDNs entry.
	Domain string
	// SLD is the second-level label of the decoded Unicode form.
	SLD string
	// TLD is the top-level label of the ACE name.
	TLD string
	// Lang is the classified language of the SLD label (valid only when
	// DecodeOK is true), assigned by the process-wide langid classifier.
	Lang langid.Language
	// WHOIS is the domain's registration record, nil without WHOIS
	// coverage. It points into the store; read-only.
	WHOIS *whois.Record
	// Cert is the certificate the domain serves, nil when none is
	// deployed.
	Cert *x509.Certificate
	// ActiveDays, Queries and IPs are the passive-DNS entry's active
	// time, query count and resolved addresses (zero when HasPDNS is
	// false). IPs aliases the store's slice; read-only.
	ActiveDays float64
	Queries    int64
	IPs        []string
	// ITLD reports whether the TLD is itself an ACE label (an
	// internationalized TLD).
	ITLD bool
	// DecodeOK reports whether the name is an IDN whose ACE form decoded
	// cleanly; sections that need the Unicode form skip rows where it is
	// false, exactly as the per-section decode loops did. Non-IDN rows
	// never decode.
	DecodeOK bool
	// Malicious reports blacklist membership.
	Malicious bool
	// HasPDNS reports passive-DNS coverage.
	HasPDNS bool
	// CertHostOK reports that Cert is valid for Domain: certs.CheckHost
	// finds no problem behind a sound chain.
	CertHostOK bool
}

// Index is the shared, immutable corpus substrate: one pass over the IDN
// and non-IDN populations materializes per-domain derived state into dense
// slices, and those rows are the state every report section shares. The
// cross-section aggregates (the IDN WHOIS records, the pDNS series of a
// population cut, the language breakdown, the creation timeline, usage
// samples, certificate censuses, the availability registration map) are
// walks over the rows, run where they are read: at scale 20 the walks a
// report repeats cost about 10 ms of CPU in all. Two results are kept:
// the hosting concentration, tens of milliseconds and read twice per
// report, and the chain verdict of each distinct certificate. A Study
// owns its index (Study.index). All accessors are safe for concurrent
// use — the parallel report scheduler hits them from many sections at
// once.
//
// The design follows the lesson the ZDNS system documents for
// scan-pipeline software: build one indexed, immutable view of the corpus
// and let every concurrent consumer share it, instead of letting each
// analysis re-derive its own view per query.
type Index struct {
	ds *Dataset
	// idns and nonIDNs are aligned with Dataset.IDNs and Dataset.NonIDNs.
	idns, nonIDNs []DomainInfo

	concOnce sync.Once
	conc     IPConcentration

	// certChain is certs.CheckChain at the snapshot, memoized per
	// certificate.
	certChain func(*x509.Certificate) certs.Problem
}

// index returns the study's corpus index, building it on first use in
// one bounded-parallel pass through internal/pipeline, ScanWorkers wide,
// and recording that pass as the study's stage=index metrics in the same
// step — whichever section or step asks first. Each row is written at
// its own position, aligned with Dataset.IDNs and Dataset.NonIDNs, so the
// index is the same at any width.
func (st *Study) index() *Index {
	st.idxOnce.Do(func() {
		var m pipeline.Metrics
		st.idx, m = buildIndex(st.DS, langid.Default(), st.ScanWorkers)
		st.recordScan(m)
	})
	return st.idx
}

// buildIndex runs the one-pass derivation over the IDNs, then the
// non-IDNs, as one stage=index pass: the worker that takes index i fills
// rows[i] in place.
func buildIndex(ds *Dataset, cls *langid.Classifier, workers int) (*Index, pipeline.Metrics) {
	n := len(ds.IDNs)
	rows := make([]DomainInfo, n+len(ds.NonIDNs))
	eng := pipeline.New(pipeline.Config{Stage: "index", Workers: workers},
		func() struct{} { return struct{}{} })
	if err := eng.Run(context.Background(), len(rows), func(_ struct{}, i int) error {
		names, j := ds.IDNs, i
		if j >= n {
			names, j = ds.NonIDNs, j-n
		}
		rows[i] = ds.derive(names[j], cls)
		return nil
	}); err != nil {
		// Unreachable: background context, fn never errors.
		panic("core: index build: " + err.Error())
	}
	return &Index{
		ds: ds, idns: rows[:n:n], nonIDNs: rows[n:],
		certChain: memoChain(func(c *x509.Certificate) certs.Problem {
			return certs.CheckChain(c, zonegen.Snapshot, ds.Authority.Roots())
		}),
	}, eng.Metrics()
}

// derive builds one corpus name's DomainInfo, probing each store once.
// The decode, SLD and language work runs only for an IDN (idna.IsIDN, the
// zone scanner's predicate).
func (ds *Dataset) derive(domain string, cls *langid.Classifier) DomainInfo {
	info := DomainInfo{Domain: domain, TLD: idna.TLD(domain)}
	info.ITLD = idna.IsACELabel(info.TLD)
	info.Malicious = ds.Blacklists.IsMalicious(domain)
	info.WHOIS, _ = ds.WHOIS.Get(domain)
	if e, ok := ds.PDNS.Get(domain); ok {
		info.HasPDNS = true
		info.ActiveDays, info.Queries, info.IPs = e.ActiveDays(), e.Queries, e.IPs
	}
	if cert, ok := ds.Certs.Get(domain); ok {
		info.Cert = cert
		info.CertHostOK = certs.CheckHost(certs.ProblemNone, cert, domain) == certs.ProblemNone
	}
	if !idna.IsIDN(domain) {
		return info
	}
	if uni, err := idna.ToUnicode(domain); err == nil {
		info.DecodeOK = true
		info.SLD = idna.SLDLabel(uni)
		info.Lang = cls.Classify(info.SLD)
	}
	return info
}

// row returns the index row of a corpus IDN, found by binary search over
// the sorted Dataset.IDNs the rows are aligned with; ok is false for a
// name outside the IDN corpus.
func (ix *Index) row(domain string) (*DomainInfo, bool) {
	i, ok := slices.BinarySearch(ix.ds.IDNs, domain)
	if !ok {
		return nil, false
	}
	return &ix.idns[i], true
}

// rows returns the rows population p is cut from: the non-IDN rows for
// PopulationNonIDN, the IDN rows otherwise.
func (ix *Index) rows(p Population) []DomainInfo {
	if p == PopulationNonIDN {
		return ix.nonIDNs
	}
	return ix.idns
}

// WHOISRecords returns the WHOIS records of the covered IDNs in corpus
// order, collected from the rows. Tables III and IV and three findings
// rank them. The records are read-only.
func (ix *Index) WHOISRecords() []*whois.Record {
	recs := []*whois.Record{}
	for i := range ix.idns {
		if rec := ix.idns[i].WHOIS; rec != nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// inCut reports whether a row of ix.rows(p) belongs to the cut p
// restricted to tld ("" for all, "itld" for every internationalized TLD).
func inCut(info *DomainInfo, p Population, tld string) bool {
	if p == PopulationMalicious && !info.Malicious {
		return false
	}
	return tld == "" || info.TLD == tld || (tld == "itld" && info.ITLD)
}

// Series returns the pDNS activity series (active days when active is
// true, query volumes otherwise) for a population/TLD cut in corpus
// order, from the values the index pass carried.
func (ix *Index) Series(active bool, p Population, tld string) []float64 {
	vals := []float64{}
	rows := ix.rows(p)
	for i := range rows {
		info := &rows[i]
		if !info.HasPDNS || !inCut(info, p, tld) {
			continue
		}
		if active {
			vals = append(vals, info.ActiveDays)
		} else {
			vals = append(vals, float64(info.Queries))
		}
	}
	return vals
}

// activity returns the active-day and query series of matched corpus
// IDNs in match order, skipping names without passive-DNS coverage — the
// series of Figures 5 and 8.
func (ix *Index) activity(domains []string) (active, queries []float64) {
	active, queries = make([]float64, 0, len(domains)), make([]float64, 0, len(domains))
	for _, d := range domains {
		if info, ok := ix.row(d); ok && info.HasPDNS {
			active = append(active, info.ActiveDays)
			queries = append(queries, float64(info.Queries))
		}
	}
	return active, queries
}

// LanguageRows returns the Table II rows: every IDN's second-level label,
// classified during the index pass by the process-wide langid.Default()
// model, English and unclassified labels grouped into langid.Other,
// sorted by volume descending, ties by language.
func (ix *Index) LanguageRows() []LanguageRow {
	counts := make(map[langid.Language]int)
	blackCounts := make(map[langid.Language]int)
	total, blackTotal := 0, 0
	for i := range ix.idns {
		info := &ix.idns[i]
		if !info.DecodeOK {
			continue
		}
		lang := info.Lang
		if lang == langid.English {
			lang = langid.Other
		}
		counts[lang]++
		total++
		if info.Malicious {
			blackCounts[lang]++
			blackTotal++
		}
	}
	out := make([]LanguageRow, 0, len(counts))
	for lang, n := range counts {
		row := LanguageRow{Language: lang, Count: n, Blacklisted: blackCounts[lang]}
		if total > 0 {
			row.Rate = float64(n) / float64(total)
		}
		if blackTotal > 0 {
			row.BlackRate = float64(blackCounts[lang]) / float64(blackTotal)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Language < out[j].Language
	})
	return out
}

// Timeline returns the Figure 1 histograms: IDN registrations per
// creation year, overall and blacklisted, from WHOIS records.
func (ix *Index) Timeline() (all, malicious stats.Histogram) {
	all, malicious = make(stats.Histogram), make(stats.Histogram)
	for i := range ix.idns {
		info := &ix.idns[i]
		if info.WHOIS == nil || info.WHOIS.Created.IsZero() {
			continue
		}
		y := info.WHOIS.Created.Year()
		all[y]++
		if info.Malicious {
			malicious[y]++
		}
	}
	return all, malicious
}

// Concentration returns the Figure 4 statistics, computed once: the one
// aggregate that costs tens of milliseconds, and the report reads it
// twice. Read-only.
func (ix *Index) Concentration() IPConcentration {
	ix.concOnce.Do(func() {
		ix.conc = ipConcentration(ix.idns)
	})
	return ix.conc
}

// Usage crawls a deterministic sample of a Table V population — the
// non-IDN sample for PopulationNonIDN, the IDN corpus otherwise — and
// classifies the responses: the Table V methodology (stratified sampling
// + manual classification, here automated). The crawl reads the
// registry, not a store.
func (ix *Index) Usage(p Population) webprobe.Census {
	if p == PopulationNonIDN {
		return ix.ds.usageSample(ix.ds.NonIDNs)
	}
	return ix.ds.usageSample(ix.ds.IDNs)
}

// AvailabilityReg returns the availability study's registration lookup:
// Unicode SLD label → bitmask of the study TLDs (com/net/org) it is
// registered under, derived from the Unicode forms the index pass already
// decoded. The availability sweep checks its surviving homograph variants
// against this map directly — one lookup per variant instead of a
// punycode encode plus three set probes.
func (ix *Index) AvailabilityReg() map[string]uint8 {
	reg := make(map[string]uint8)
	for i := range ix.idns {
		info := &ix.idns[i]
		if !info.DecodeOK {
			continue
		}
		if bit := availabilityTLDBit(info.TLD); bit != 0 {
			reg[info.SLD] |= bit
		}
	}
	return reg
}

// Certs classifies the certificates a population serves — the Table VI
// census, a walk over the rows. The chain step runs once per distinct
// certificate across every census of the index; the hostname outcome is
// the one the index pass recorded per domain.
func (ix *Index) Certs(p Population) CertReport {
	return certCensus(ix.rows(p), p, ix.certChain)
}
