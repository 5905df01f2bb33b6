package core

import (
	"context"
	"sort"

	"idnlab/internal/pipeline"
)

// The study's corpus pass. The paper's brute-force homograph sweep took
// 102 hours on a single machine (§VI-B); the study instead classifies
// the corpus once through internal/pipeline's scan engine: one
// Classifier clone per worker (the homograph renderer's scratch is not
// safe for concurrent use), each name's matches written at its own
// index, per-stage metrics, and clean cancellation. Each name is
// normalized once and gets the verdict idnserve would serve for it, plus
// the Type-2 dictionary lookup on the same NormalizedDomain, so every
// corpus table reads the one door the service answers from.
//
// Workers claim batches of 32 consecutive names from a shared cursor
// and claim the next when they finish, so a corpus of at least 32 names
// per worker keeps every worker busy, and a smaller one runs on fewer
// workers (an 8-name corpus is one batch, on one worker). Whatever
// len(domains) and the worker count are, the result equals the
// sequential loop; TestScanWorkerCountEdge pins that.

// corpusMatches is what the pass keeps of a corpus: each detector's
// matches, sorted by brand then domain.
type corpusMatches struct {
	homograph []HomographMatch
	semantic  []SemanticMatch
	type2     []Type2Match
}

// classified is what the pass keeps of one name: each detector's match,
// nil when it matched nothing.
type classified struct {
	homograph *HomographMatch
	semantic  *SemanticMatch
	type2     *Type2Match
}

// classifyCorpus runs the pass over domains, workers wide (<= 0 selects
// GOMAXPROCS), on clones of cls and the shared read-only type2
// dictionary. A name Normalize rejects matches nothing. On cancellation
// it drains and returns ctx.Err().
func classifyCorpus(ctx context.Context, cls *Classifier, type2 *Type2Detector,
	domains []string, workers int) (*corpusMatches, pipeline.Metrics, error) {
	hits := make([]classified, len(domains))
	eng := pipeline.New(pipeline.Config{Stage: "classify", Workers: workers}, cls.Clone)
	err := eng.Run(ctx, len(domains), func(c *Classifier, i int) error {
		n, err := Normalize(domains[i])
		if err != nil {
			return nil
		}
		v := c.Verdict(n)
		hits[i] = classified{homograph: v.Homograph, semantic: v.Semantic}
		if m, ok := type2.DetectNormalized(n); ok {
			// Copied into its own allocation: taking &m would move m
			// to the heap on every name, matched or not.
			hits[i].type2 = new(Type2Match)
			*hits[i].type2 = m
		}
		return nil
	})
	if err != nil {
		return nil, eng.Metrics(), err
	}
	out := &corpusMatches{}
	for _, h := range hits {
		if h.homograph != nil {
			out.homograph = append(out.homograph, *h.homograph)
		}
		if h.semantic != nil {
			out.semantic = append(out.semantic, *h.semantic)
		}
		if h.type2 != nil {
			out.type2 = append(out.type2, *h.type2)
		}
	}
	out.sort()
	return out, eng.Metrics(), nil
}

// sort puts each detector's matches in the canonical order.
func (c *corpusMatches) sort() {
	sortByBrand(c.homograph, func(m HomographMatch) (string, string) { return m.Brand, m.Domain })
	sortByBrand(c.semantic, func(m SemanticMatch) (string, string) { return m.Brand, m.Domain })
	sortByBrand(c.type2, func(m Type2Match) (string, string) { return m.Brand, m.Domain })
}

// sortByBrand applies the canonical match order: by brand, then by
// domain.
func sortByBrand[M any](ms []M, key func(M) (brand, domain string)) {
	sort.Slice(ms, func(i, j int) bool {
		bi, di := key(ms[i])
		bj, dj := key(ms[j])
		if bi != bj {
			return bi < bj
		}
		return di < dj
	})
}
