package core

import (
	"context"
	"crypto/x509"
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

// DomainInfo is the per-IDN derived state the corpus index materializes in
// its one pass: the decoded forms, TLD classification, language,
// auxiliary-store membership and the passive-DNS aggregate every report
// section would otherwise recompute or look up for itself.
type DomainInfo struct {
	// Domain is the ACE name, identical to the Dataset.IDNs entry.
	Domain string
	// Unicode is the decoded display form; empty when DecodeOK is false.
	Unicode string
	// SLD is the second-level label of the Unicode form.
	SLD string
	// TLD is the top-level label of the ACE name.
	TLD string
	// ITLD reports whether the TLD is itself an ACE label (an
	// internationalized TLD).
	ITLD bool
	// DecodeOK reports whether the ACE form decoded cleanly; sections that
	// need the Unicode form skip domains where it is false, exactly as the
	// per-section decode loops did.
	DecodeOK bool
	// Lang is the classified language of the SLD label (valid only when
	// DecodeOK is true), assigned by the process-wide langid classifier.
	Lang langid.Language
	// Malicious reports blacklist membership.
	Malicious bool
	// HasWHOIS and HasPDNS report auxiliary-store coverage.
	HasWHOIS bool
	HasPDNS  bool
	// ActiveDays, Queries and IPs are the passive-DNS entry's active
	// time, query count and resolved addresses (zero when HasPDNS is
	// false). IPs aliases the store's slice; read-only.
	ActiveDays float64
	Queries    int64
	IPs        []string
}

// Index is the shared, immutable corpus substrate: one pass over the IDN
// population materializes per-domain derived state into a dense slice, and
// every cross-section aggregate (the IDN WHOIS sub-store, the pDNS series
// of each population cut, the language breakdown, the creation timeline,
// the hosting concentration, usage samples, certificate censuses) is
// computed at most once and memoized behind the index. A Study owns its
// index (Study.index). All accessors are safe for concurrent use — the
// parallel report scheduler hits them from many sections at once — and
// every memoized value is treated as read-only by its consumers.
//
// The design follows the lesson the ZDNS system documents for
// scan-pipeline software: build one indexed, immutable view of the corpus
// and let every concurrent consumer share it, instead of letting each
// analysis re-derive its own view per query.
type Index struct {
	ds    *Dataset
	infos []DomainInfo

	whoisOnce sync.Once
	whoisSub  *whois.Store

	seriesMu sync.Mutex
	series   map[seriesKey][]float64

	langOnce sync.Once
	langRows []LanguageRow

	timelineOnce sync.Once
	timelineAll  stats.Histogram
	timelineMal  stats.Histogram

	concOnce sync.Once
	conc     IPConcentration

	usageMu sync.Mutex
	usage   map[Population]webprobe.Census

	certMu    sync.Mutex
	certs     map[Population]CertReport
	certChain func(*x509.Certificate) certs.Problem

	availOnce sync.Once
	availReg  map[string]uint8
}

type seriesKey struct {
	active bool
	pop    Population
	tld    string
}

// index returns the study's corpus index, building it on first use in
// one bounded-parallel pass through internal/pipeline, ScanWorkers wide,
// and recording that pass as the study's stage=index metrics in the same
// step — whichever section or step asks first. The order-preserving
// fan-in keeps infos aligned with Dataset.IDNs, so the index is the same
// at any width.
func (st *Study) index() *Index {
	st.idxOnce.Do(func() {
		var m pipeline.Metrics
		st.idx, m = buildIndex(st.DS, langid.Default(), st.ScanWorkers)
		st.recordScan(m)
	})
	return st.idx
}

// buildIndex runs the one-pass derivation over the IDN corpus.
func buildIndex(ds *Dataset, cls *langid.Classifier, workers int) (*Index, pipeline.Metrics) {
	eng := pipeline.New(
		pipeline.Config{Stage: "index", Workers: workers},
		func() struct{} { return struct{}{} },
		func(_ struct{}, domain string) (DomainInfo, bool, error) {
			info := DomainInfo{Domain: domain, TLD: idna.TLD(domain)}
			info.ITLD = idna.IsACELabel(info.TLD)
			info.Malicious = ds.Blacklists.IsMalicious(domain)
			_, info.HasWHOIS = ds.WHOIS.Get(domain)
			if e, ok := ds.PDNS.Get(domain); ok {
				info.HasPDNS = true
				info.ActiveDays, info.Queries, info.IPs = e.ActiveDays(), e.Queries, e.IPs
			}
			if uni, err := idna.ToUnicode(domain); err == nil {
				info.DecodeOK = true
				info.Unicode = uni
				info.SLD = idna.SLDLabel(uni)
				info.Lang = cls.Classify(info.SLD)
			}
			return info, true, nil
		})
	infos, err := eng.Collect(context.Background(), ds.IDNs)
	if err != nil {
		// Unreachable: background context, Func never errors.
		panic("core: index build: " + err.Error())
	}
	return &Index{ds: ds, infos: infos}, eng.Metrics()
}

// IDNWHOIS returns the WHOIS sub-store restricted to the IDN corpus,
// built once. Tables III and IV and three findings all rank against it;
// before the index each of them rebuilt the store from scratch.
func (ix *Index) IDNWHOIS() *whois.Store {
	ix.whoisOnce.Do(func() {
		n := 0
		for i := range ix.infos {
			if ix.infos[i].HasWHOIS {
				n++
			}
		}
		sub := whois.NewStore(n)
		for i := range ix.infos {
			if !ix.infos[i].HasWHOIS {
				continue
			}
			if rec, ok := ix.ds.WHOIS.Get(ix.infos[i].Domain); ok {
				sub.Put(rec)
			}
		}
		ix.whoisSub = sub
	})
	return ix.whoisSub
}

// cut returns a population optionally restricted to one TLD ("" for
// all), in corpus order. The IDN and malicious cuts read the index's
// precomputed TLD and blacklist fields instead of re-deriving them per
// domain. Not memoized: Series, its reader, memoizes per cut. The result
// may alias Dataset.IDNs or Dataset.NonIDNs; read-only.
func (ix *Index) cut(p Population, tld string) []string {
	switch p {
	case PopulationNonIDN:
		return filterTLD(ix.ds.NonIDNs, tld)
	case PopulationIDN:
		if tld == "" {
			return ix.ds.IDNs
		}
	}
	var out []string
	for i := range ix.infos {
		if inCut(&ix.infos[i], p, tld) {
			out = append(out, ix.infos[i].Domain)
		}
	}
	return out
}

// inCut reports whether an IDN belongs to the IDN or malicious cut p
// restricted to tld ("" for all, "itld" for every internationalized TLD).
func inCut(info *DomainInfo, p Population, tld string) bool {
	if p == PopulationMalicious && !info.Malicious {
		return false
	}
	return tld == "" || info.TLD == tld || (tld == "itld" && info.ITLD)
}

// Series returns the pDNS activity series (active days when active is
// true, query volumes otherwise) for a population/TLD cut, computed once.
// The IDN and malicious cuts read the values the index pass carried; only
// the non-IDN cut looks its domains up in the store. Read-only.
func (ix *Index) Series(active bool, p Population, tld string) []float64 {
	key := seriesKey{active: active, pop: p, tld: tld}
	ix.seriesMu.Lock()
	if ix.series == nil {
		ix.series = make(map[seriesKey][]float64)
	}
	if cached, ok := ix.series[key]; ok {
		ix.seriesMu.Unlock()
		return cached
	}
	ix.seriesMu.Unlock()

	var vals []float64
	switch {
	case p == PopulationNonIDN && active:
		vals = ix.ds.PDNS.ActiveDaysOf(ix.cut(p, tld))
	case p == PopulationNonIDN:
		vals = ix.ds.PDNS.QueriesOf(ix.cut(p, tld))
	default:
		vals = []float64{}
		for i := range ix.infos {
			info := &ix.infos[i]
			if !info.HasPDNS || !inCut(info, p, tld) {
				continue
			}
			if active {
				vals = append(vals, info.ActiveDays)
			} else {
				vals = append(vals, float64(info.Queries))
			}
		}
	}

	ix.seriesMu.Lock()
	ix.series[key] = vals
	ix.seriesMu.Unlock()
	return vals
}

// LanguageRows returns the Table II rows: every IDN's second-level label,
// classified during the index pass by the process-wide langid.Default()
// model, English and unclassified labels grouped into langid.Other,
// aggregated once. Read-only.
func (ix *Index) LanguageRows() []LanguageRow {
	ix.langOnce.Do(func() {
		ix.langRows = languageRowsFromInfos(ix.infos)
	})
	return ix.langRows
}

// languageRowsFromInfos aggregates the precomputed per-domain languages
// into the Table II rows: English folded into Other, sorted by volume
// descending, ties by language.
func languageRowsFromInfos(infos []DomainInfo) []LanguageRow {
	counts := make(map[langid.Language]int)
	blackCounts := make(map[langid.Language]int)
	total, blackTotal := 0, 0
	for i := range infos {
		info := &infos[i]
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
// creation year, overall and blacklisted, from WHOIS records. Computed
// once; both maps are read-only.
func (ix *Index) Timeline() (all, malicious stats.Histogram) {
	ix.timelineOnce.Do(func() {
		ix.timelineAll = make(stats.Histogram)
		ix.timelineMal = make(stats.Histogram)
		for i := range ix.infos {
			info := &ix.infos[i]
			if !info.HasWHOIS {
				continue
			}
			rec, ok := ix.ds.WHOIS.Get(info.Domain)
			if !ok || rec.Created.IsZero() {
				continue
			}
			y := rec.Created.Year()
			ix.timelineAll[y]++
			if info.Malicious {
				ix.timelineMal[y]++
			}
		}
	})
	return ix.timelineAll, ix.timelineMal
}

// Concentration returns the Figure 4 statistics, computed once. Read-only.
func (ix *Index) Concentration() IPConcentration {
	ix.concOnce.Do(func() {
		ix.conc = ipConcentration(ix.infos)
	})
	return ix.conc
}

// Usage crawls a deterministic sample of a population and classifies the
// responses — the Table V methodology (stratified sampling + manual
// classification, here automated). Probed once per population. Read-only.
func (ix *Index) Usage(p Population) webprobe.Census {
	ix.usageMu.Lock()
	defer ix.usageMu.Unlock()
	if ix.usage == nil {
		ix.usage = make(map[Population]webprobe.Census)
	}
	if cached, ok := ix.usage[p]; ok {
		return cached
	}
	census := ix.ds.usageSample(ix.cut(p, ""))
	ix.usage[p] = census
	return census
}

// AvailabilityReg returns the availability study's registration lookup:
// Unicode SLD label → bitmask of the study TLDs (com/net/org) it is
// registered under, derived from the Unicode forms the index pass already
// decoded. The availability sweep checks its surviving homograph variants
// against this map directly — one lookup per variant instead of a
// punycode encode plus three set probes. Built once; read-only.
func (ix *Index) AvailabilityReg() map[string]uint8 {
	ix.availOnce.Do(func() {
		ix.availReg = make(map[string]uint8)
		for i := range ix.infos {
			info := &ix.infos[i]
			if !info.DecodeOK {
				continue
			}
			bit := availabilityTLDBit(info.TLD)
			if bit == 0 {
				continue
			}
			ix.availReg[info.SLD] |= bit
		}
	})
	return ix.availReg
}

// Certs classifies the certificates a population serves — the Table VI
// census, computed once per population. The chain step runs once per
// distinct certificate across every population's census; the hostname
// check runs per domain.
func (ix *Index) Certs(p Population) CertReport {
	ix.certMu.Lock()
	defer ix.certMu.Unlock()
	if ix.certs == nil {
		ix.certs = make(map[Population]CertReport)
		roots := ix.ds.Authority.Roots()
		ix.certChain = memoChain(func(c *x509.Certificate) certs.Problem {
			return certs.CheckChain(c, zonegen.Snapshot, roots)
		})
	}
	if cached, ok := ix.certs[p]; ok {
		return cached
	}
	rep := ix.ds.certCensus(ix.cut(p, ""), ix.certChain)
	ix.certs[p] = rep
	return rep
}
