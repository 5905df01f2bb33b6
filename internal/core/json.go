package core

import (
	"context"
	"encoding/json"
	"io"

	"idnlab/internal/browser"
	"idnlab/internal/pipeline"
	"idnlab/internal/stats"
	"idnlab/internal/whois"
)

// Results is the machine-readable form of the full study, for downstream
// analysis pipelines (the text report is the human-facing form).
type Results struct {
	// Scale is the down-scaling divisor of the underlying universe.
	Scale int `json:"scale"`
	// Corpus sizes.
	IDNs    int `json:"idns"`
	NonIDNs int `json:"nonIdns"`
	// PerTLD is the Table I accounting.
	PerTLD []TLDRow `json:"perTld"`
	// Findings are the paper's nine numbered findings, measured.
	Findings Findings `json:"findings"`
	// Languages is the Table II distribution.
	Languages []LanguageRow `json:"languages"`
	// TopRegistrars and TopRegistrants are Tables IV and III.
	TopRegistrars  []GroupCountJSON `json:"topRegistrars"`
	TopRegistrants []GroupCountJSON `json:"topRegistrants"`
	// Homographs and Semantic are the detector outputs (Tables XIII/XIV).
	Homographs HomographResults `json:"homographs"`
	Semantic   SemanticResults  `json:"semantic"`
	// BrowserSurvey is the Table XI matrix.
	BrowserSurvey []browser.SurveyRow `json:"browserSurvey"`
	// IPGini summarizes the Figure 4 hosting concentration.
	IPGini float64 `json:"ipGini"`
}

// GroupCountJSON mirrors whois.GroupCount with JSON tags.
type GroupCountJSON struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

// HomographResults summarizes the homograph detector's output.
type HomographResults struct {
	Total       int              `json:"total"`
	Identical   int              `json:"identical"`
	Blacklisted int              `json:"blacklisted"`
	ByBrand     []BrandRanking   `json:"byBrand"`
	Matches     []HomographMatch `json:"matches"`
}

// SemanticResults summarizes the Type-1 detector's output.
type SemanticResults struct {
	Total   int             `json:"total"`
	ByBrand []BrandRanking  `json:"byBrand"`
	Matches []SemanticMatch `json:"matches"`
}

// homographResults summarizes the classify pass's homograph matches: the
// one count Table XIII and Results both read.
func (st *Study) homographResults() HomographResults {
	homo := st.matches().homograph
	ix := st.index()
	out := HomographResults{Total: len(homo), Matches: homo,
		ByBrand: RankBrands(homo, func(m HomographMatch) string { return m.Brand })}
	for _, m := range homo {
		if m.SSIM >= 1.0-1e-9 {
			out.Identical++
		}
		if info, ok := ix.row(m.Domain); ok && info.Malicious {
			out.Blacklisted++
		}
	}
	return out
}

// semanticResults summarizes the classify pass's Type-1 matches: the one
// ranking Table XIV and Results both read.
func (st *Study) semanticResults() SemanticResults {
	sem := st.matches().semantic
	return SemanticResults{Total: len(sem), Matches: sem,
		ByBrand: RankBrands(sem, func(m SemanticMatch) string { return m.Brand })}
}

// Results computes the full machine-readable study output. Like
// RunContext it primes the index and the classify pass, then runs what is
// independent — here the findings' aggregates and the browser survey,
// each memoized behind its own lock — through the same scheduler,
// ScanWorkers wide. The struct is assembled from the memoized values, so
// it is identical at any width.
func (st *Study) Results() Results {
	out := Results{
		Scale:   st.DS.Scale(),
		IDNs:    len(st.DS.IDNs),
		NonIDNs: len(st.DS.NonIDNs),
		PerTLD:  st.DS.PerTLD,
	}
	var steps []func() error
	for _, step := range append(st.findingSteps(&out.Findings), func() { out.BrowserSurvey = browser.RunSurvey() }) {
		steps = append(steps, func() error { step(); return nil })
	}
	ctx := context.Background()
	err := st.prime(ctx)
	if err == nil {
		var m pipeline.Metrics
		m, err = runAll(ctx, "results", st.ScanWorkers, steps)
		st.recordScan(m)
	}
	if err != nil {
		// Unreachable: a background context, no failing step.
		panic("core: results: " + err.Error())
	}
	ix := st.index()
	out.Languages = ix.LanguageRows()

	recs := ix.WHOISRecords()
	for _, gc := range whois.TopRegistrars(recs, 10) {
		out.TopRegistrars = append(out.TopRegistrars, GroupCountJSON{Key: gc.Key, Count: gc.Count})
	}
	for _, gc := range whois.TopRegistrantEmails(recs, 5) {
		out.TopRegistrants = append(out.TopRegistrants, GroupCountJSON{Key: gc.Key, Count: gc.Count})
	}

	out.Homographs = st.homographResults()
	out.Semantic = st.semanticResults()

	conc := ix.Concentration()
	counts := make([]int, len(conc.Segments))
	for i, seg := range conc.Segments {
		counts[i] = seg.Domains
	}
	out.IPGini = stats.Gini(counts)
	return out
}

// WriteJSON renders the results as indented JSON.
func (st *Study) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st.Results())
}
