package core

import (
	"math"
	"testing"
	"unicode/utf8"

	"idnlab/internal/candidx"
)

// rescoreLabel is one label of the scale-100 universe with the brand
// labels its rescore reaches: the default index's candidates within one
// rune of its length, in the order BestIndexed scores them.
type rescoreLabel struct {
	label  string
	brands []string
}

// universeRescores lists the rescores the default top-1000 index yields
// for the IDNs of the shared scale-100 universe, and the detector that
// scores them.
func universeRescores(tb testing.TB) (*HomographDetector, []rescoreLabel) {
	tb.Helper()
	d := NewHomographDetector(1000)
	var probe candidx.Probe
	var out []rescoreLabel
	for _, domain := range testDS.IDNs {
		n, err := Normalize(domain)
		if err != nil || n.ASCII {
			continue
		}
		labelLen := utf8.RuneCountInString(n.Label)
		var list []string
		for _, id := range d.index.Candidates(n.Label, &probe) {
			if diff := labelLen - d.brandLens[id]; diff > 1 || diff < -1 {
				continue
			}
			list = append(list, d.brandList[id].Label())
		}
		if len(list) > 0 {
			out = append(out, rescoreLabel{n.Label, list})
		}
	}
	if len(out) == 0 {
		tb.Fatal("the universe yields no rescores")
	}
	return d, out
}

// TestScoreBoundedUniverse pins the bounded rescore to Score on every
// (label, candidate brand) pair the default index yields for the
// universe's IDNs — the candidates the server actually sees, mostly a few
// substituted glyphs against a brand of the same or a neighbouring
// length. At the detection threshold and at the pair's own exact score,
// ok must hold exactly when Score reaches the floor, and the score must
// then be bit-identical.
func TestScoreBoundedUniverse(t *testing.T) {
	d, labels := universeRescores(t)
	bounded := d.Clone()
	pairs, above := 0, 0
	for _, l := range labels {
		for _, brand := range l.brands {
			exact := d.Score(l.label, brand)
			for _, floor := range []float64{candidx.SSIMThreshold, exact} {
				got, ok := bounded.ScoreBounded(l.label, brand, floor)
				if ok != (exact >= floor) {
					t.Fatalf("ScoreBounded(%q, %q, %v): ok=%v, exact score %v", l.label, brand, floor, ok, exact)
				}
				if ok && math.Float64bits(got) != math.Float64bits(exact) {
					t.Fatalf("ScoreBounded(%q, %q, %v) = %v, exact %v", l.label, brand, floor, got, exact)
				}
			}
			pairs++
			if exact >= candidx.SSIMThreshold {
				above++
			}
		}
	}
	t.Logf("%d labels, %d pairs, %d at or above the threshold", len(labels), pairs, above)
}

// BenchmarkRescoreUniverse replays the bounded rescores BestIndexed makes
// for the universe's IDNs, with the floor rising to the best score so
// far: the rescore path on the candidates the server sees, where the
// kernel scores only the glyphs that differ. One op is one label;
// rescores/s is the gated rate.
func BenchmarkRescoreUniverse(b *testing.B) {
	d, labels := universeRescores(b)
	calls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := labels[i%len(labels)]
		floor, best := candidx.SSIMThreshold, -1.0
		for _, brand := range l.brands {
			if s, ok := d.ScoreBounded(l.label, brand, floor); ok && s > best {
				best, floor = s, s
			}
		}
		calls += len(l.brands)
	}
	b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "rescores/s")
}
