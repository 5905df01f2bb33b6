package core

import (
	"bytes"
	"context"
	"fmt"
	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/confusables"
	"idnlab/internal/idna"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
	"unicode/utf8"

	"idnlab/internal/browser"
	"idnlab/internal/feat"
	"idnlab/internal/pipeline"
	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
	"idnlab/internal/whois"
	"idnlab/internal/zonegen"
)

// Study runs the complete measurement over a dataset and renders every
// table and figure of the paper. The characterization (Tables II–VII,
// Figures 1–4, the findings) reads the Study's corpus index (index); the
// corpus tables (IX, X, XIII, XIV; Figures 5, 8; the taxonomy) read one
// classify pass, and a match's WHOIS, pDNS and blacklist state from its
// index row. Each runs once per Study, ScanWorkers wide through the
// internal/pipeline engine, no matter how many sections consume it. Report
// sections themselves render concurrently (RunContext) into private
// buffers that are written out in the fixed section order, so the report
// is byte-identical to the sequential renderer at any worker count.
type Study struct {
	DS *Dataset

	// ScanWorkers is the fan-out of the corpus-index pass, the classify
	// pass and the section scheduler; 0 selects GOMAXPROCS, 1 forces a
	// single worker.
	ScanWorkers int

	// cls is the study's one verdict door: the corpus pass classifies on
	// its clones, and the example, ladder and availability sections score
	// through clones of its homograph detector, so the catalogs cannot
	// disagree. type2 is the read-only Type-2 dictionary every worker of
	// the pass shares.
	cls   *Classifier
	type2 *Type2Detector

	mu          sync.Mutex
	scanMetrics []pipeline.Metrics
	timings     []SectionTiming

	// Memoized statistical classifier: trained once per Study on the
	// registry's labeled ground truth (deterministic for a fixed seed),
	// shared by the taxonomy section across sequential and parallel
	// renders. Guarded by its own mutex like the memoized pass.
	statMu  sync.Mutex
	statM   *feat.Model
	statExs []feat.Example
	statErr error

	// Memoized corpus pass. Guarded by its own mutex (not sync.Once) so a
	// pass aborted by context cancellation stays uncached and can be
	// retried; it is cached only on success.
	corpusMu sync.Mutex
	corpus   *corpusMatches

	// The corpus index every corpus aggregate reads (index).
	idxOnce sync.Once
	idx     *Index
}

// NewStudy wires a study over an assembled dataset with default
// components. Its classifier probes the process-wide top-1000 candidate
// index, built here on first use (defaultIndex) and shared by every door.
func NewStudy(ds *Dataset) *Study {
	return &Study{DS: ds, cls: NewClassifier(DetectorConfig{TopK: 1000}), type2: NewType2Detector(nil)}
}

// matchesCtx returns the corpus matches, running the classify pass on
// first use and caching on success.
func (st *Study) matchesCtx(ctx context.Context) (*corpusMatches, error) {
	st.corpusMu.Lock()
	defer st.corpusMu.Unlock()
	if st.corpus != nil {
		return st.corpus, nil
	}
	matches, m, err := classifyCorpus(ctx, st.cls, st.type2, st.DS.IDNs, st.ScanWorkers)
	if err != nil {
		return nil, err
	}
	st.recordScan(m)
	st.corpus = matches
	return matches, nil
}

// matches is the non-cancellable entry point used by sections.
func (st *Study) matches() *corpusMatches {
	matches, err := st.matchesCtx(context.Background())
	if err != nil {
		// Unreachable with a background context.
		panic("core: classify pass: " + err.Error())
	}
	return matches
}

func (st *Study) recordScan(m pipeline.Metrics) {
	st.mu.Lock()
	st.scanMetrics = append(st.scanMetrics, m)
	st.mu.Unlock()
}

// ScanMetrics returns one Metrics snapshot per pipelined pass the study
// has run so far (index build, corpus classify pass, section scheduler),
// in execution order.
func (st *Study) ScanMetrics() []pipeline.Metrics {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]pipeline.Metrics, len(st.scanMetrics))
	copy(out, st.scanMetrics)
	return out
}

// SectionTiming records how long one report section took to render during
// the last RunContext.
type SectionTiming struct {
	Name     string
	Duration time.Duration
}

// SectionTimings returns the per-section render durations of the most
// recent completed Run/RunContext, in section order.
func (st *Study) SectionTimings() []SectionTiming {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SectionTiming, len(st.timings))
	copy(out, st.timings)
	return out
}

// reportSection is one experiment of the report: the key that selects
// it (`idnreport -only`), its display name (error messages and timing
// output) and its renderer.
type reportSection struct {
	Key  string
	Name string
	Fn   func(io.Writer) error
}

// sections is the one registry of experiments, in the report's fixed
// output order.
func (st *Study) sections() []reportSection {
	return []reportSection{
		{"findings", "Findings", st.ReportFindings},
		{"table1", "Table I", st.ReportTable1}, {"table2", "Table II", st.ReportTable2},
		{"figure1", "Figure 1", st.ReportFigure1}, {"table3", "Table III", st.ReportTable3},
		{"table4", "Table IV", st.ReportTable4}, {"figure2", "Figure 2", st.ReportFigure2},
		{"figure3", "Figure 3", st.ReportFigure3}, {"figure4", "Figure 4", st.ReportFigure4},
		{"table5", "Table V", st.ReportTable5}, {"table6", "Table VI", st.ReportTable6},
		{"table7", "Table VII", st.ReportTable7}, {"table8", "Table VIII", st.ReportTable8},
		{"table9", "Table IX", st.ReportTable9}, {"table10", "Table X", st.ReportTable10},
		{"table11", "Table XI", st.ReportTable11}, {"table11b", "Table XI-b", st.ReportTable11b},
		{"table12", "Table XII", st.ReportTable12}, {"table13", "Table XIII", st.ReportTable13},
		{"figure5", "Figure 5", st.ReportFigure5}, {"figure6", "Figure 6", st.ReportFigure6},
		{"figure7", "Figure 7", st.ReportFigure7}, {"figure7b", "Figure 7b", st.ReportFigure7b},
		{"table14", "Table XIV", st.ReportTable14}, {"figure8", "Figure 8", st.ReportFigure8},
		{"taxonomy", "Taxonomy", st.ReportTaxonomy},
	}
}

// SectionKeys lists the keys Section accepts, in report order.
func (st *Study) SectionKeys() []string {
	secs := st.sections()
	keys := make([]string, len(secs))
	for i, sec := range secs {
		keys[i] = sec.Key
	}
	return keys
}

// Section returns the renderer of the one experiment key selects
// (case-insensitive): every section RunContext renders is selectable.
func (st *Study) Section(key string) (func(io.Writer) error, error) {
	for _, sec := range st.sections() {
		if strings.EqualFold(sec.Key, key) {
			return sec.Fn, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (available: %s)", key, strings.Join(st.SectionKeys(), ", "))
}

// RunContext executes every experiment with bounded-parallel section
// rendering and writes the full report to w. The three shared substrates
// are primed first under the caller's context (prime); the ~25 sections
// then render concurrently (runAll), section i into its own buffer
// bodies[i], and the buffers are written to w in the fixed section order.
// Output is byte-identical to the sequential renderer at any ScanWorkers
// value. On cancellation RunContext returns ctx.Err() after all section
// goroutines have drained.
func (st *Study) RunContext(ctx context.Context, w io.Writer) error {
	if err := st.prime(ctx); err != nil {
		return err
	}

	secs := st.sections()
	bodies := make([][]byte, len(secs))
	timings := make([]SectionTiming, len(secs))
	steps := make([]func() error, len(secs))
	for i, sec := range secs {
		steps[i] = func() error {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := sec.Fn(&buf); err != nil {
				return fmt.Errorf("section %s: %w", sec.Name, err)
			}
			// The sequential renderer emitted one blank line after each
			// section; keep it inside the section's buffer so assembly
			// is a plain ordered concatenation.
			buf.WriteByte('\n')
			bodies[i] = buf.Bytes()
			timings[i] = SectionTiming{Name: sec.Name, Duration: time.Since(t0)}
			return nil
		}
	}
	m, err := runAll(ctx, "report", st.ScanWorkers, steps)
	st.recordScan(m)
	if err != nil {
		return err
	}
	for _, body := range bodies {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	st.mu.Lock()
	st.timings = timings
	st.mu.Unlock()
	return nil
}

// prime computes the two shared substrates — the corpus index and the
// classify pass — once, one after the other (each is ScanWorkers wide
// inside), under ctx: whatever is scheduled next reads memoized state
// instead of racing to compute it.
func (st *Study) prime(ctx context.Context) error {
	st.index()
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := st.matchesCtx(ctx)
	return err
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ReportTable1 renders the dataset summary (Table I).
func (st *Study) ReportTable1(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE I: Datasets collected (scaled 1/"+fmt.Sprint(st.DS.Registry.Cfg.Scale)+")")
	fmt.Fprintln(tw, "TLD\t# SLD\t# IDN\tWHOIS\tBlacklisted")
	var sld, idn, who, bl int
	for _, row := range st.DS.PerTLD {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", row.TLD, row.SLDs, row.IDNs, row.WHOIS, row.Blacklisted)
		sld += row.SLDs
		idn += row.IDNs
		who += row.WHOIS
		bl += row.Blacklisted
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\t%d\t%d\n", sld, idn, who, bl)
	return tw.Flush()
}

// ReportTable2 renders the language distribution (Table II).
func (st *Study) ReportTable2(w io.Writer) error {
	rows := st.index().LanguageRows()
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE II: Languages of all and malicious IDNs")
	fmt.Fprintln(tw, "Language\tVolume\tRate\tBlacklisted\tRate")
	limit := 16
	for i, r := range rows {
		if i >= limit {
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n",
			r.Language, r.Count, stats.Percent(r.Rate), r.Blacklisted, stats.Percent(r.BlackRate))
	}
	return tw.Flush()
}

// ReportFigure1 renders the registration timeline (Figure 1).
func (st *Study) ReportFigure1(w io.Writer) error {
	all, malicious := st.index().Timeline()
	fmt.Fprintln(w, "FIGURE 1: IDN registrations by creation year (all | malicious)")
	tw := newTab(w)
	for _, y := range all.Keys() {
		fmt.Fprintf(tw, "%d\t%d\t%d\n", y, all[y], malicious[y])
	}
	return tw.Flush()
}

// ReportTable3 renders the top registrants (Table III).
func (st *Study) ReportTable3(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE III: Top 5 IDN registrants")
	fmt.Fprintln(tw, "Email\t# IDN")
	for _, gc := range whois.TopRegistrantEmails(st.index().WHOISRecords(), 5) {
		fmt.Fprintf(tw, "%s\t%d\n", gc.Key, gc.Count)
	}
	return tw.Flush()
}

// ReportTable4 renders the top registrars (Table IV).
func (st *Study) ReportTable4(w io.Writer) error {
	recs := st.index().WHOISRecords()
	top, covered := whois.TopRegistrars(recs, 10), len(recs)
	tw := newTab(w)
	fmt.Fprintf(tw, "TABLE IV: Top 10 registrars (%d distinct total)\n", whois.RegistrarCount(recs))
	fmt.Fprintln(tw, "Registrar\t# IDN\tRate")
	for _, gc := range top {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", gc.Key, gc.Count, stats.Percent(float64(gc.Count)/float64(covered)))
	}
	return tw.Flush()
}

// figureECDF renders a two-or-three population ECDF block.
func (st *Study) figureECDF(w io.Writer, title, xlabel string, series []stats.Series, hi float64) error {
	ticks := stats.LogTicks(1, hi, 9)
	if _, err := io.WriteString(w, stats.RenderECDFTable(title+" ("+xlabel+")", ticks, series)); err != nil {
		return err
	}
	return nil
}

// ReportFigure2 renders the active-time ECDFs (Figure 2).
func (st *Study) ReportFigure2(w io.Writer) error {
	ix := st.index()
	series := []stats.Series{
		{Name: "IDN(com)", Values: ix.Series(true, PopulationIDN, "com")},
		{Name: "IDN(net)", Values: ix.Series(true, PopulationIDN, "net")},
		{Name: "IDN(itld)", Values: ix.Series(true, PopulationIDN, "itld")},
		{Name: "nonIDN(com)", Values: ix.Series(true, PopulationNonIDN, "com")},
		{Name: "malicious", Values: ix.Series(true, PopulationMalicious, "")},
	}
	return st.figureECDF(w, "FIGURE 2: ECDF of active time", "days", series, 3000)
}

// ReportFigure3 renders the query-volume ECDFs (Figure 3).
func (st *Study) ReportFigure3(w io.Writer) error {
	ix := st.index()
	series := []stats.Series{
		{Name: "IDN(com)", Values: ix.Series(false, PopulationIDN, "com")},
		{Name: "IDN(net)", Values: ix.Series(false, PopulationIDN, "net")},
		{Name: "IDN(itld)", Values: ix.Series(false, PopulationIDN, "itld")},
		{Name: "nonIDN(com)", Values: ix.Series(false, PopulationNonIDN, "com")},
		{Name: "malicious", Values: ix.Series(false, PopulationMalicious, "")},
	}
	return st.figureECDF(w, "FIGURE 3: ECDF of query volume", "queries", series, 1e7)
}

// ReportFigure4 renders the IP-concentration curve (Figure 4).
func (st *Study) ReportFigure4(w io.Writer) error {
	conc := st.index().Concentration()
	counts := make([]int, len(conc.Segments))
	for i, seg := range conc.Segments {
		counts[i] = seg.Domains
	}
	fmt.Fprintf(w, "FIGURE 4: IDN concentration over /24 segments (%d segments, %d IPs, Gini %.3f)\n",
		len(conc.Segments), conc.TotalIPs, stats.Gini(counts))
	tw := newTab(w)
	fmt.Fprintln(tw, "top-k segments\tcumulative IDN share")
	for _, k := range []int{1, 10, 50, 100, 200, 500, 1000} {
		if k > len(conc.Cumulative) {
			break
		}
		fmt.Fprintf(tw, "%d\t%s\n", k, stats.Percent(conc.Cumulative[k-1]))
	}
	return tw.Flush()
}

// ReportTable5 renders the usage census (Table V).
func (st *Study) ReportTable5(w io.Writer) error {
	ix := st.index()
	idn, non := ix.Usage(PopulationIDN), ix.Usage(PopulationNonIDN)
	tw := newTab(w)
	fmt.Fprintf(tw, "TABLE V: Usage of domain names (%d-domain samples)\n", usageSampleSize)
	fmt.Fprintln(tw, "Type\tIDN\tNon-IDN")
	for _, s := range webprobe.States() {
		fmt.Fprintf(tw, "%s\t%d (%s)\t%d (%s)\n", s,
			idn[s], stats.Percent(idn.Rate(s)), non[s], stats.Percent(non.Rate(s)))
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\n", idn.Total(), non.Total())
	return tw.Flush()
}

// ReportTable6 renders the certificate problems (Table VI).
func (st *Study) ReportTable6(w io.Writer) error {
	ix := st.index()
	idn, non := ix.Certs(PopulationIDN), ix.Certs(PopulationNonIDN)
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE VI: Security problems of SSL certificates")
	fmt.Fprintln(tw, "Problem\tIDN\tnon-IDN")
	rate := func(n, total int) string {
		if total == 0 {
			return "0"
		}
		return fmt.Sprintf("%d (%s)", n, stats.Percent(float64(n)/float64(total)))
	}
	fmt.Fprintf(tw, "Expired Certificate\t%s\t%s\n", rate(idn.Expired, idn.Total), rate(non.Expired, non.Total))
	fmt.Fprintf(tw, "Invalid Authority\t%s\t%s\n", rate(idn.InvalidAuthority, idn.Total), rate(non.InvalidAuthority, non.Total))
	fmt.Fprintf(tw, "Invalid Common Name\t%s\t%s\n", rate(idn.InvalidCommonName, idn.Total), rate(non.InvalidCommonName, non.Total))
	fmt.Fprintf(tw, "Total problematic\t%s\t%s\n",
		rate(idn.Total-idn.Valid, idn.Total), rate(non.Total-non.Valid, non.Total))
	return tw.Flush()
}

// ReportTable7 renders the shared-certificate ranking (Table VII).
func (st *Study) ReportTable7(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE VII: Top shared certificates among IDNs")
	fmt.Fprintln(tw, "Common Name\tVolume")
	for _, cn := range st.index().SharedCertificates(10) {
		fmt.Fprintf(tw, "%s\t%d\n", cn.CommonName, cn.Count)
	}
	return tw.Flush()
}

// ReportTable8 renders example homographic IDNs for facebook.com
// (Table VIII), generated live from the confusable table.
func (st *Study) ReportTable8(w io.Writer) error {
	fmt.Fprintln(w, "TABLE VIII: Example homographic IDNs for facebook.com")
	// Clone: the detector's Score scratch is not safe for concurrent use,
	// and sections render in parallel under RunContext.
	examples := st.cls.homo.Clone().ExamplesFor("facebook", 12)
	for i, ex := range examples {
		sep := "  "
		if (i+1)%4 == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, "%s.com (%s)%s", ex.Unicode, ex.ACE, sep)
	}
	fmt.Fprintln(w)
	return nil
}

// ReportTable9 renders Type-1 semantic examples (Tables IX/X shape).
func (st *Study) ReportTable9(w io.Writer) error {
	matches := st.matches().semantic
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE IX: Examples of Type-1 semantic abuse")
	fmt.Fprintln(tw, "Punycode\tUnicode\tBrand")
	limit := 8
	for i, m := range matches {
		if i >= limit {
			break
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Domain, m.Unicode, m.Brand)
	}
	return tw.Flush()
}

// ReportTable11 renders the browser survey (Table XI).
func (st *Study) ReportTable11(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE XI: Surveyed browsers under homograph attack")
	fmt.Fprintln(tw, "Browser\tPlatform\tVer.\tiTLD IDN\tHomograph Attack")
	for _, row := range browser.RunSurvey() {
		itld := row.ITLDCell
		if itld == "" {
			itld = "(full)"
		}
		attack := row.Attack
		if attack == "" {
			attack = "(safe)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", row.Browser, row.Platform, row.Version, itld, attack)
	}
	return tw.Flush()
}

// ReportTable12 renders the SSIM threshold ladder for google.com
// (Table XII) in this renderer's SSIM space.
func (st *Study) ReportTable12(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE XII: SSIM index ladder against google.com")
	fmt.Fprintln(tw, "SSIM\tUnicode\tPunycode")
	// Clone: Ladder scores through the detector's private scratch.
	for _, row := range st.cls.homo.Clone().Ladder("google") {
		fmt.Fprintf(tw, "%.4f\t%s.com\t%s.com\n", row.SSIM, row.Unicode, row.ACE)
	}
	return tw.Flush()
}

// ReportTable13 renders the homograph brand ranking (Table XIII).
func (st *Study) ReportTable13(w io.Writer) error {
	res := st.homographResults()
	reg := st.index().registrants(res.Matches)
	tw := newTab(w)
	fmt.Fprintf(tw, "TABLE XIII: Registered homographic IDNs (total %d, identical %d, blacklisted %d)\n",
		res.Total, res.Identical, res.Blacklisted)
	fmt.Fprintf(tw, "Registrants (of %d with WHOIS): %d protective, %d personal, %d privacy\n",
		reg.WithWHOIS, reg.Protective, reg.Personal, reg.Privacy)
	fmt.Fprintln(tw, "Brand\t# IDN\tRate")
	limit := 10
	for i, r := range res.ByBrand {
		if i >= limit {
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Brand, r.Count, stats.Percent(float64(r.Count)/float64(res.Total)))
	}
	return tw.Flush()
}

// ReportFigure5 renders the homographic-IDN DNS activity (Figure 5).
func (st *Study) ReportFigure5(w io.Writer) error {
	matches := st.matches().homograph
	domains := make([]string, len(matches))
	for i, m := range matches {
		domains[i] = m.Domain
	}
	activeDays, queryCounts := st.index().activity(domains)
	series := []stats.Series{
		{Name: "active-days", Values: activeDays},
		{Name: "queries", Values: queryCounts},
	}
	active := stats.NewECDF(series[0].Values)
	queries := stats.NewECDF(series[1].Values)
	fmt.Fprintf(w, "FIGURE 5: Homographic IDN activity — mean active %.0f days, mean queries %.0f, P(active>600d)=%s, P(q>100)=%s\n",
		active.Mean(), queries.Mean(),
		stats.Percent(1-active.At(600)), stats.Percent(1-queries.At(100)))
	return st.figureECDF(w, "FIGURE 5 series", "days/queries", series, 1e5)
}

// ReportFigure6 renders registered-vs-unregistered candidate traffic
// (Figure 6).
func (st *Study) ReportFigure6(w io.Writer) error {
	reg, unreg := st.UnregisteredTraffic(100)
	regE := stats.NewECDF(reg)
	unregE := stats.NewECDF(unreg)
	fmt.Fprintf(w, "FIGURE 6: candidate homographic IDN traffic — registered: %d domains (mean %.0f q), unregistered observed: %d domains (mean %.1f q)\n",
		regE.Len(), regE.Mean(), unregE.Len(), unregE.Mean())
	return nil
}

// ReportFigure7 renders the availability study (Figure 7).
func (st *Study) ReportFigure7(w io.Writer) error {
	// Clone: the availability sweep scores through the detector's private
	// scratch, and sections render in parallel under RunContext. The
	// registration map comes precomputed from the corpus index (the index
	// pass already decoded every Unicode form).
	results := st.cls.homo.Clone().AvailabilityStudyReg(100, st.index().AvailabilityReg())
	totalCand, totalHomo, totalReg := 0, 0, 0
	for _, r := range results {
		totalCand += r.Candidates
		totalHomo += r.Homographic
		totalReg += r.Registered
	}
	fmt.Fprintf(w, "FIGURE 7: availability — %d candidates, %d homographic (%s), %d registered\n",
		totalCand, totalHomo, stats.Percent(float64(totalHomo)/float64(totalCand)), totalReg)
	// Figure 7's x-axis is Alexa rank; results arrive in rank order.
	tw := newTab(w)
	fmt.Fprintln(tw, "Brand (by rank)\tCandidates\tHomographic\tRegistered")
	for i, r := range results {
		if i >= 10 {
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Brand, r.Candidates, r.Homographic, r.Registered)
	}
	return tw.Flush()
}

// ReportTable14 renders the Type-1 brand ranking (Table XIV).
func (st *Study) ReportTable14(w io.Writer) error {
	res := st.semanticResults()
	tw := newTab(w)
	fmt.Fprintf(tw, "TABLE XIV: Type-1 semantic IDNs (total %d)\n", res.Total)
	fmt.Fprintln(tw, "Brand\t# Type-1 IDN\tRate")
	for i, r := range res.ByBrand {
		if i >= 10 {
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Brand, r.Count, stats.Percent(float64(r.Count)/float64(res.Total)))
	}
	return tw.Flush()
}

// ReportFigure8 renders the Type-1 DNS activity (Figure 8).
func (st *Study) ReportFigure8(w io.Writer) error {
	matches := st.matches().semantic
	domains := make([]string, len(matches))
	for i, m := range matches {
		domains[i] = m.Domain
	}
	activeDays, queryCounts := st.index().activity(domains)
	active, queries := stats.NewECDF(activeDays), stats.NewECDF(queryCounts)
	fmt.Fprintf(w, "FIGURE 8: Type-1 IDN activity — mean active %.0f days, mean queries %.0f\n",
		active.Mean(), queries.Mean())
	return nil
}

// UnregisteredTraffic returns the query volumes of registered vs
// unregistered homographic candidates of the top-k brands (Figure 6 data).
// The sweep splices each single-substitution variant into a reusable
// buffer instead of materializing the full Variants slice per brand;
// variant strings only get allocated for the ACE encoding of candidates
// not already seen. Iteration order matches Table.Variants (positions in
// order, homoglyphs in code-point order), so the output is identical to
// the materialized loop. A registered candidate's traffic is its corpus
// index row's; only an unregistered one, a name outside the corpus, is
// looked up in the passive-DNS store.
func (st *Study) UnregisteredTraffic(topK int) (registered, unregistered []float64) {
	ix := st.index()
	seen := make(map[string]struct{})
	keyBuf := make([]byte, 0, 64)
	tab := confusables.Default()
	for _, b := range topKBrandLabels(topK) {
		for byteOff, base := range b {
			baseLen := utf8.RuneLen(base)
			for _, h := range tab.Homoglyphs(base) {
				keyBuf = append(keyBuf[:0], b[:byteOff]...)
				keyBuf = utf8.AppendRune(keyBuf, h)
				keyBuf = append(keyBuf, b[byteOff+baseLen:]...)
				if _, dup := seen[string(keyBuf)]; dup {
					// A variant label repeats only with an identical ACE
					// name (punycode is injective), so skipping repeats
					// before the encode preserves the name-keyed dedup.
					continue
				}
				seen[string(keyBuf)] = struct{}{}
				ace, err := idna.ToASCIILabel(string(keyBuf))
				if err != nil {
					continue
				}
				name := ace + ".com"
				if info, isReg := ix.row(name); isReg {
					if info.HasPDNS {
						registered = append(registered, float64(info.Queries))
					}
				} else if e, ok := st.DS.PDNS.Get(name); ok {
					unregistered = append(unregistered, float64(e.Queries))
				}
			}
		}
	}
	return registered, unregistered
}

// ExampleHomograph is a generated presentation row (Tables VIII and XII).
type ExampleHomograph struct {
	Unicode string
	ACE     string
	SSIM    float64
}

// ExamplesFor generates up to n homographic variants of a brand label
// (single substitutions from the confusables table) with their ACE
// forms, highest SSIM first.
func (d *HomographDetector) ExamplesFor(brandLabel string, n int) []ExampleHomograph {
	var out []ExampleHomograph
	for _, v := range confusables.Default().Variants(brandLabel) {
		ace, err := idna.ToASCIILabel(v)
		if err != nil {
			continue
		}
		out = append(out, ExampleHomograph{Unicode: v, ACE: ace, SSIM: d.Score(v, brandLabel)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SSIM != out[j].SSIM {
			return out[i].SSIM > out[j].SSIM
		}
		return out[i].Unicode < out[j].Unicode
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Ladder builds the Table XII presentation: a descending SSIM ladder of
// variants from identical to clearly-different, one example per band.
func (d *HomographDetector) Ladder(brandLabel string) []ExampleHomograph {
	examples := d.ExamplesFor(brandLabel, -1)
	// Add multi-substitution rungs to reach the lower bands, as the
	// paper's table does.
	multi := d.multiSubstitutions(brandLabel, 2)
	examples = append(examples, multi...)
	sort.Slice(examples, func(i, j int) bool { return examples[i].SSIM > examples[j].SSIM })
	var out []ExampleHomograph
	lastBand := 2.0
	for _, ex := range examples {
		band := float64(int(ex.SSIM*100)) / 100
		if band < lastBand {
			out = append(out, ex)
			lastBand = band
		}
		if len(out) >= 12 {
			break
		}
	}
	return out
}

// multiSubstitutions generates a few two-character substitutions for the
// lower rungs of the ladder.
func (d *HomographDetector) multiSubstitutions(label string, maxOut int) []ExampleHomograph {
	runes := []rune(label)
	var out []ExampleHomograph
	tab := confusables.Default()
	for i := 0; i < len(runes) && len(out) < maxOut*4; i++ {
		hi := tab.Homoglyphs(runes[i])
		if len(hi) == 0 {
			continue
		}
		for j := i + 1; j < len(runes) && len(out) < maxOut*4; j++ {
			hj := tab.Homoglyphs(runes[j])
			if len(hj) == 0 {
				continue
			}
			cand := make([]rune, len(runes))
			copy(cand, runes)
			cand[i] = hi[len(hi)/2]
			cand[j] = hj[len(hj)/2]
			v := string(cand)
			ace, err := idna.ToASCIILabel(v)
			if err != nil {
				continue
			}
			out = append(out, ExampleHomograph{Unicode: v, ACE: ace, SSIM: d.Score(v, label)})
		}
	}
	return out
}

func topKBrandLabels(k int) []string {
	labels := make([]string, 0, k)
	seen := make(map[string]struct{}, k)
	for _, b := range brands.TopK(k) {
		l := b.Label()
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		labels = append(labels, l)
	}
	return labels
}

// Scale returns the dataset's configured down-scaling divisor.
func (ds *Dataset) Scale() int { return ds.Registry.Cfg.Scale }

// NewDefaultDataset generates and assembles a dataset with the given seed
// and scale — the one-call entry point used by the CLI and benchmarks.
func NewDefaultDataset(seed uint64, scale int) (*Dataset, error) {
	return Assemble(zonegen.Generate(zonegen.Config{Seed: seed, Scale: scale}))
}

// ReportFigure7b renders the multi-substitution extension of the
// availability study. The paper notes its 42,671 single-substitution
// candidates are "just the lower-bound, as only one letter was replaced";
// this section quantifies the growth: the exact two-substitution space per
// brand, with the homographic survivor rate estimated on a bounded sample.
func (st *Study) ReportFigure7b(w io.Writer) error {
	// Clone: the sampled-survivor scoring below mutates detector scratch.
	det := st.cls.homo.Clone()
	tab := confusables.Default()
	tw := newTab(w)
	fmt.Fprintln(tw, "FIGURE 7b (extension): candidate space growth with substitutions")
	fmt.Fprintln(tw, "Brand\t1-sub space\t2-sub space\tgrowth\t2-sub homographic (sampled)")
	const sampleCap = 150
	for _, b := range brands.TopK(10) {
		label := b.Label()
		one := tab.VariantCountMulti(label, 1)
		two := tab.VariantCountMulti(label, 2)
		if one == 0 {
			continue
		}
		sample := tab.VariantsMulti(label, 2, sampleCap)
		hits := 0
		for _, v := range sample {
			if det.Score(v, label) >= candidx.SSIMThreshold {
				hits++
			}
		}
		rate := 0.0
		if len(sample) > 0 {
			rate = float64(hits) / float64(len(sample))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0fx\t%s\n",
			b.Domain, one, two, float64(two)/float64(one), stats.Percent(rate))
	}
	return tw.Flush()
}

// statModel trains the statistical classifier on the registry's labeled
// ground truth, once per Study. Training is deterministic for a fixed
// registry seed, so the section built on it is byte-stable across
// renders and across the sequential/parallel schedulers.
func (st *Study) statModel() (*feat.Model, []feat.Example, error) {
	st.statMu.Lock()
	defer st.statMu.Unlock()
	if st.statM == nil && st.statErr == nil {
		exs := feat.FromLabeled(st.DS.Registry.Labels())
		m, _, err := feat.Train(exs, feat.TrainConfig{Seed: st.DS.Registry.Cfg.Seed})
		st.statM, st.statExs, st.statErr = m, exs, err
	}
	return st.statM, st.statExs, st.statErr
}

// ReportTaxonomy renders the abuse-taxonomy extension: for each labeled
// abuse population, the share caught by each detector family — the
// glyph-level homograph detector (SSIM), the exact-residue semantic
// detector, and the statistical classifier — and their ensemble union.
// The structural detectors are read from the memoized corpus pass, so
// the section matches the example sections exactly; the classifier is
// trained in-report on the same universe it is evaluated against (the
// section characterizes coverage overlap, not held-out generalization —
// that is `idnstat eval`'s job). The closing line is the statistical
// prefilter's pass rate over the benign populations: the fraction of
// clean traffic that would still reach the expensive SSIM path.
func (st *Study) ReportTaxonomy(w io.Writer) error {
	m, exs, err := st.statModel()
	if err != nil {
		return err
	}
	matches := st.matches()
	glyph := make(map[string]struct{})
	for _, mt := range matches.homograph {
		glyph[mt.Domain] = struct{}{}
	}
	semantic := make(map[string]struct{})
	for _, mt := range matches.semantic {
		semantic[mt.Domain] = struct{}{}
	}
	type row struct{ total, glyph, semantic, stat, any int }
	rows := make(map[string]*row)
	var negTotal, negPass int
	for _, e := range exs {
		raw := m.ScoreLabel(e.Label, e.ACELabel, e.TLD)
		if !e.Positive {
			negTotal++
			if m.PrefilterPass(raw) {
				negPass++
			}
			continue
		}
		r := rows[e.Population]
		if r == nil {
			r = &row{}
			rows[e.Population] = r
		}
		r.total++
		full := e.ACELabel + "." + e.TLD
		_, g := glyph[full]
		_, s := semantic[full]
		flag := m.Flag(raw)
		if g {
			r.glyph++
		}
		if s {
			r.semantic++
		}
		if flag {
			r.stat++
		}
		if g || s || flag {
			r.any++
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "TAXONOMY (extension): detector families per abuse population (model seed %d, %d bigrams)\n",
		m.Seed(), m.BigramCount())
	fmt.Fprintln(tw, "Population\tn\tGlyph (SSIM)\tSemantic\tStatistical\tEnsemble")
	for _, pop := range []string{"homograph", "semantic", "semantic2", "protective"} {
		r := rows[pop]
		if r == nil || r.total == 0 {
			continue
		}
		n := float64(r.total)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", pop, r.total,
			stats.Percent(float64(r.glyph)/n), stats.Percent(float64(r.semantic)/n),
			stats.Percent(float64(r.stat)/n), stats.Percent(float64(r.any)/n))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if negTotal > 0 {
		fmt.Fprintf(w, "Statistical prefilter passes %s of benign labels (%d of %d) to the SSIM path\n",
			stats.Percent(float64(negPass)/float64(negTotal)), negPass, negTotal)
	}
	return nil
}

// ReportTable11b renders the policy-effectiveness extension: each display
// policy's block rate over a generated attack corpus and its collateral
// damage on legitimate IDNs — quantifying §VIII's conclusion that
// character-set-diversity policies are not enough.
func (st *Study) ReportTable11b(w io.Writer) error {
	labels := topKBrandLabels(20)
	results := browser.EvaluateAllPolicies(labels)
	tw := newTab(w)
	fmt.Fprintln(tw, "TABLE XI-b (extension): display-policy effectiveness")
	fmt.Fprintln(tw, "Policy\tAttacks blocked\tLegitimate IDNs degraded")
	for _, e := range results {
		fmt.Fprintf(tw, "%s\t%s (%d/%d)\t%s (%d/%d)\n",
			e.Policy, stats.Percent(e.BlockRate()), e.Blocked, e.AttackCorpus,
			stats.Percent(e.CollateralRate()), e.Collateral, e.LegitCorpus)
	}
	return tw.Flush()
}
