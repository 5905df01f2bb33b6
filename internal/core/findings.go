package core

import (
	"fmt"
	"io"

	"idnlab/internal/stats"
	"idnlab/internal/webprobe"
)

// Findings computes the paper's nine numbered findings from the assembled
// dataset, each as a measured statement. It is the narrative layer over
// the tables: the same numbers, phrased as the paper phrases them.
type Findings struct {
	// Finding 1: east-Asian language share of IDNs.
	EastAsianShare float64 `json:"eastAsianShare"`
	// Finding 2: share of IDNs created before 2008.
	Pre2008Share float64 `json:"pre2008Share"`
	// Finding 3: IDNs held by the top bulk registrants.
	OpportunisticCount int `json:"opportunisticCount"`
	// Finding 4: distinct registrars and top-10 registrar share.
	Registrars    int     `json:"registrars"`
	Top10RegShare float64 `json:"top10RegistrarShare"`
	// Finding 5: P(active < 100 days) for com IDNs vs non-IDNs.
	IDNShortLived    float64 `json:"idnShortLived"`
	NonIDNShortLived float64 `json:"nonIdnShortLived"`
	// Finding 6: P(queries < 100) for com IDNs vs non-IDNs.
	IDNLowTraffic    float64 `json:"idnLowTraffic"`
	NonIDNLowTraffic float64 `json:"nonIdnLowTraffic"`
	// Finding 7: share of IDNs hosted in the top 2.3% of /24 segments.
	TopSegmentShare float64 `json:"topSegmentShare"`
	// Finding 8: meaningful-content and not-resolved rates (IDN sample).
	MeaningfulRate  float64 `json:"meaningfulRate"`
	NotResolvedRate float64 `json:"notResolvedRate"`
	// Finding 9: certificate problem rate among served IDN certificates.
	CertProblemRate float64 `json:"certProblemRate"`
}

// ComputeFindings runs every finding over the dataset.
func (st *Study) ComputeFindings() Findings {
	var f Findings
	for _, step := range st.findingSteps(&f) {
		step()
	}
	return f
}

// findingSteps returns the measurements behind the findings, the costly
// ones first. Each reads memoized, concurrency-safe aggregates of the
// corpus index and writes only its own fields of f, so they may run in
// any order or side by side (Results does).
func (st *Study) findingSteps(f *Findings) []func() {
	ds := st.DS
	return []func(){
		// Finding 7: top 2.3% of segments, the paper's 1,000-of-43,535 ratio.
		func() {
			conc := ds.IPConcentrationStats()
			if n := len(conc.Cumulative); n > 0 {
				k := n * 23 / 1000
				if k < 1 {
					k = 1
				}
				if k > n {
					k = n
				}
				f.TopSegmentShare = conc.Cumulative[k-1]
			}
		},
		// Finding 9.
		func() {
			f.CertProblemRate = ds.CertCensus(PopulationIDN).ProblemRate()
		},
		// Findings 3 and 4.
		func() {
			for _, gc := range ds.TopRegistrants(5) {
				f.OpportunisticCount += gc.Count
			}
			f.Registrars = ds.RegistrarCount()
			top, covered := ds.TopRegistrars(10)
			sum := 0
			for _, gc := range top {
				sum += gc.Count
			}
			if covered > 0 {
				f.Top10RegShare = float64(sum) / float64(covered)
			}
		},
		// Findings 5 and 6.
		func() {
			f.IDNShortLived = stats.NewECDF(ds.ActiveTimeSeries(PopulationIDN, "com")).At(100)
			f.IDNLowTraffic = stats.NewECDF(ds.QueryVolumeSeries(PopulationIDN, "com")).At(100)
		},
		func() {
			f.NonIDNShortLived = stats.NewECDF(ds.ActiveTimeSeries(PopulationNonIDN, "com")).At(100)
			f.NonIDNLowTraffic = stats.NewECDF(ds.QueryVolumeSeries(PopulationNonIDN, "com")).At(100)
		},
		// Finding 2.
		func() {
			all, _ := ds.CreationTimeline()
			pre2008, total := 0, 0
			for year, n := range all {
				total += n
				if year < 2008 {
					pre2008 += n
				}
			}
			if total > 0 {
				f.Pre2008Share = float64(pre2008) / float64(total)
			}
		},
		// Finding 8.
		func() {
			census := ds.UsageSample(PopulationIDN, 500, 1)
			f.MeaningfulRate = census.Rate(webprobe.Meaningful)
			f.NotResolvedRate = census.Rate(webprobe.NotResolved)
		},
		// Finding 1.
		func() {
			for _, row := range ds.LanguageBreakdown() {
				if row.Language.EastAsian() {
					f.EastAsianShare += row.Rate
				}
			}
		},
	}
}

// ReportFindings renders the findings as the paper phrases them.
func (st *Study) ReportFindings(w io.Writer) error {
	f := st.ComputeFindings()
	lines := []string{
		"FINDINGS (paper §IV, measured on this universe)",
		fmt.Sprintf("1. %s of IDNs are registered in east-Asian languages (paper: >75%%).",
			stats.Percent(f.EastAsianShare)),
		fmt.Sprintf("2. %s of IDNs were created before 2008 (paper: 6.16%%).",
			stats.Percent(f.Pre2008Share)),
		fmt.Sprintf("3. The top-5 bulk registrants hold %d IDNs (opportunistic registration).",
			f.OpportunisticCount),
		fmt.Sprintf("4. %d registrars offer IDNs; the top 10 hold %s (paper: >700 and 55%%).",
			f.Registrars, stats.Percent(f.Top10RegShare)),
		fmt.Sprintf("5. P(active<100d): IDN %s vs non-IDN %s (paper: 60%% vs 40%%).",
			stats.Percent(f.IDNShortLived), stats.Percent(f.NonIDNShortLived)),
		fmt.Sprintf("6. P(queries<100): IDN %s vs non-IDN %s (paper: 88%% vs 74%%).",
			stats.Percent(f.IDNLowTraffic), stats.Percent(f.NonIDNLowTraffic)),
		fmt.Sprintf("7. The top 2.3%% of /24 segments host %s of IDNs (paper: 80%%).",
			stats.Percent(f.TopSegmentShare)),
		fmt.Sprintf("8. %s of sampled IDNs serve meaningful content; %s do not resolve (paper: 19.8%% and 45.6%%).",
			stats.Percent(f.MeaningfulRate), stats.Percent(f.NotResolvedRate)),
		fmt.Sprintf("9. %s of served IDN certificates have security problems (paper: 97.95%%).",
			stats.Percent(f.CertProblemRate)),
	}
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
