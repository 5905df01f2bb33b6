package core

import (
	"context"
	"sort"
	"sync"

	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/pipeline"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
)

// DomainInfo is the per-IDN derived state the corpus index materializes in
// its one pass: the decoded forms, TLD classification, language and
// auxiliary-store membership every report section would otherwise recompute
// for itself.
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
}

// Index is the shared, immutable corpus substrate: one pass over the IDN
// population materializes per-domain derived state into a dense slice, and
// every cross-section aggregate (the IDN WHOIS sub-store, population
// partitions, the language breakdown, the creation timeline, the hosting
// concentration, usage samples, certificate censuses) is computed at most
// once and memoized behind the index. All accessors are safe for
// concurrent use — the parallel report scheduler hits them from many
// sections at once — and every memoized value is treated as read-only by
// its consumers.
//
// The design follows the lesson the ZDNS system documents for
// scan-pipeline software: build one indexed, immutable view of the corpus
// and let every concurrent consumer share it, instead of letting each
// analysis re-derive its own view per query.
type Index struct {
	ds    *Dataset
	infos []DomainInfo

	// buildMetrics snapshots the pipeline engine that built the index.
	buildMetrics pipeline.Metrics

	whoisOnce sync.Once
	whoisSub  *whois.Store

	malOnce   sync.Once
	malicious []string

	partMu     sync.Mutex
	partitions map[partitionKey][]string

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
	usage   map[usageKey]webprobe.Census

	certMu sync.Mutex
	certs  map[Population]CertReport

	availOnce sync.Once
	availReg  map[string]uint8
}

type partitionKey struct {
	pop Population
	tld string
}

type seriesKey struct {
	active bool
	pop    Population
	tld    string
}

type usageKey struct {
	pop  Population
	size int
	seed uint64
}

// Index returns the dataset's corpus index, building it on first use. The
// build is a single bounded-parallel pass through internal/pipeline
// (IndexWorkers wide, GOMAXPROCS when zero); the order-preserving fan-in
// keeps infos aligned with Dataset.IDNs, so the index is deterministic at
// any worker count.
func (ds *Dataset) Index() *Index {
	ds.idxOnce.Do(func() {
		ds.idx = buildIndex(ds, langid.Default(), ds.IndexWorkers)
	})
	return ds.idx
}

// buildIndex runs the one-pass derivation over the IDN corpus.
func buildIndex(ds *Dataset, cls *langid.Classifier, workers int) *Index {
	eng := pipeline.New(
		pipeline.Config{Stage: "index", Workers: workers},
		func() struct{} { return struct{}{} },
		func(_ struct{}, domain string) (DomainInfo, bool, error) {
			info := DomainInfo{Domain: domain, TLD: idna.TLD(domain)}
			info.ITLD = idna.IsACELabel(info.TLD)
			info.Malicious = ds.Blacklists.IsMalicious(domain)
			_, info.HasWHOIS = ds.WHOIS.Get(domain)
			_, info.HasPDNS = ds.PDNS.Get(domain)
			if uni, err := idna.ToUnicode(domain); err == nil {
				info.DecodeOK = true
				info.Unicode = uni
				info.SLD = idna.SLDLabel(uni)
				info.Lang = cls.Classify(info.SLD)
			}
			return info, true, nil
		})
	infos, err := eng.Collect(context.Background(), pipeline.FromSlice(ds.IDNs))
	if err != nil {
		// Unreachable: slice source, background context, Func never errors.
		panic("core: index build: " + err.Error())
	}
	return &Index{ds: ds, infos: infos, buildMetrics: eng.Metrics()}
}

// BuildMetrics returns the pipeline metrics of the index-construction
// pass.
func (ix *Index) BuildMetrics() pipeline.Metrics { return ix.buildMetrics }

// IDNWHOIS returns the WHOIS sub-store restricted to the IDN corpus,
// built once. Tables III and IV and three findings all rank against it;
// before the index each of them rebuilt the store from scratch.
func (ix *Index) IDNWHOIS() *whois.Store {
	ix.whoisOnce.Do(func() {
		sub := whois.NewStore()
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

// Malicious returns the blacklisted subset of the corpus in corpus order
// (sorted, because Dataset.IDNs is sorted). Read-only.
func (ix *Index) Malicious() []string {
	ix.malOnce.Do(func() {
		for i := range ix.infos {
			if ix.infos[i].Malicious {
				ix.malicious = append(ix.malicious, ix.infos[i].Domain)
			}
		}
	})
	return ix.malicious
}

// populationDomains resolves a population to its (cached) domain list.
func (ix *Index) populationDomains(p Population) []string {
	switch p {
	case PopulationIDN:
		return ix.ds.IDNs
	case PopulationNonIDN:
		return ix.ds.NonIDNs
	case PopulationMalicious:
		return ix.Malicious()
	}
	return nil
}

// Partition returns a population optionally restricted to one TLD ("" for
// all), computing each (population, tld) filter exactly once. For the IDN
// population the filter reads the index's precomputed TLD fields instead
// of re-deriving them per domain. Read-only.
func (ix *Index) Partition(p Population, tld string) []string {
	if tld == "" {
		return ix.populationDomains(p)
	}
	key := partitionKey{pop: p, tld: tld}
	ix.partMu.Lock()
	defer ix.partMu.Unlock()
	if ix.partitions == nil {
		ix.partitions = make(map[partitionKey][]string)
	}
	if cached, ok := ix.partitions[key]; ok {
		return cached
	}
	var out []string
	if p == PopulationIDN {
		for i := range ix.infos {
			info := &ix.infos[i]
			if info.TLD == tld || (tld == "itld" && info.ITLD) {
				out = append(out, info.Domain)
			}
		}
	} else {
		out = filterTLD(ix.populationDomains(p), tld)
	}
	ix.partitions[key] = out
	return out
}

// Series returns the pDNS activity series (active days when active is
// true, query volumes otherwise) for a population/TLD cut, computed once.
// Read-only.
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

	domains := ix.Partition(p, tld)
	var vals []float64
	if active {
		vals = ix.ds.PDNS.ActiveDaysOf(domains)
	} else {
		vals = ix.ds.PDNS.QueriesOf(domains)
	}

	ix.seriesMu.Lock()
	ix.series[key] = vals
	ix.seriesMu.Unlock()
	return vals
}

// LanguageRows returns the Table II distribution, classified during the
// index pass and aggregated once. Read-only.
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

// Timeline returns the Figure 1 histograms, computed once. Both maps are
// read-only.
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
		ix.conc = ix.ds.ipConcentration(ix.infos)
	})
	return ix.conc
}

// Usage returns the Table V census for a deterministic population sample,
// computed once per (population, size, seed). Read-only.
func (ix *Index) Usage(p Population, sampleSize int, seed uint64) webprobe.Census {
	key := usageKey{pop: p, size: sampleSize, seed: seed}
	ix.usageMu.Lock()
	defer ix.usageMu.Unlock()
	if ix.usage == nil {
		ix.usage = make(map[usageKey]webprobe.Census)
	}
	if cached, ok := ix.usage[key]; ok {
		return cached
	}
	census := ix.ds.usageSample(ix.populationDomains(p), sampleSize, seed)
	ix.usage[key] = census
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

// Certs returns the Table VI certificate census for a population, computed
// once.
func (ix *Index) Certs(p Population) CertReport {
	ix.certMu.Lock()
	defer ix.certMu.Unlock()
	if ix.certs == nil {
		ix.certs = make(map[Population]CertReport)
	}
	if cached, ok := ix.certs[p]; ok {
		return cached
	}
	rep := ix.ds.certCensus(ix.populationDomains(p))
	ix.certs[p] = rep
	return rep
}
