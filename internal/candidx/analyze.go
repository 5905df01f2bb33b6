package candidx

import (
	"math"
	"sort"

	"idnlab/internal/glyph"
	"idnlab/internal/simchar"
	"idnlab/internal/ssim"
)

// The build-time analysis answers one question per brand position: how
// much SSIM score must any off-family substitution at this position cost?
// ("Off-family" = a rune whose skeleton fold differs from the brand's
// base there — exactly the substitutions the skeleton key cannot absorb,
// which therefore need wildcard keys to stay reachable.) Positions whose
// minimum penalties are large bound how many simultaneous off-family
// substitutions can keep a label above the detection threshold, which in
// turn bounds how many wildcard ("hole") keys the brand needs: one hole
// per position always, two-hole keys only for cheap position pairs, and a
// brand goes on the always-rescan hard list in the (rare) case three
// substitutions could fit the budget.
//
// The penalty of a substitution depends only on the cells a shared SSIM
// window can see. With CellWidth 6 and window 8, a window overlapping
// cell i reaches at most columns 6i-7..6i+11; column 6i-7 is the spacing
// column of cell i-2 (always blank), so only cells i-1, i, i+1 influence
// the affected windows. Penalties are therefore cached per
// (prev, cur, next, edge-class) trigram and replayed across brands, with
// the four edge classes capturing how the window band clamps at the
// image borders (i = 0, i = 1, i = m-1, interior).

// edge classes of a position within an m-cell image.
const (
	edgeFirst  = 0 // i == 0
	edgeSecond = 1 // i == 1 (left window band clamps at the border)
	edgeLast   = 2 // i == m-1 (right band clamps)
	edgeInner  = 3
)

// edgeClassOf maps position i of an m-cell label to its band-geometry
// class. Only valid for m >= 5, where the classes are geometrically
// exact; shorter labels bypass the cache.
func edgeClassOf(i, m int) uint8 {
	switch {
	case i == 0:
		return edgeFirst
	case i == m-1:
		return edgeLast
	case i == 1:
		return edgeSecond
	default:
		return edgeInner
	}
}

// windowCount is the number of SSIM window positions over an m-cell
// render (width 6m, height CellHeight, window 8, degrading like the
// kernel when the image is narrower than the window).
func windowCount(m int) int {
	w, h := m*glyph.CellWidth, glyph.CellHeight
	win := ssim.DefaultWindow
	if w < win {
		win = w
	}
	if h < win {
		win = h
	}
	return (w - win + 1) * (h - win + 1)
}

// triKey identifies one cached penalty context: the base at the position,
// its rendered neighbors (0 = image border) and the band's edge class.
type triKey struct {
	prev, cur, next byte
	edge            uint8
}

// analyzer computes per-position minimum off-family penalties. It owns
// its renderer/comparator pair and is single-goroutine.
type analyzer struct {
	table *simchar.Table
	re    *glyph.Renderer
	cmp   *ssim.Comparator
	geo   *GeomCache

	// rep is the substitution repertoire: every designed code point plus
	// the ASCII bases themselves (a label may use a plain ASCII letter
	// that mismatches the brand), in deterministic order.
	rep []rune
	// foldOf caches the fold of each repertoire rune (0 = unfoldable).
	foldOf map[rune]byte

	// tri caches the minimum raw off-family deficit per context. Raw
	// deficits are sums of (1 - windowStat) over affected windows; they
	// are geometry-local, so a value computed in a canonical small render
	// is exact for every brand sharing the trigram.
	tri map[triKey]float64
	// blank caches the raw deficit of erasing the last cell, keyed by
	// (prev, cur) — the padded-comparison (length-minus-one) class.
	blank map[[2]byte]float64

	// ixFold maps every base byte to its index fold class representative
	// (identity for bytes outside the base alphabet). See deriveIxFold.
	ixFold [256]byte
}

func newAnalyzer(table *simchar.Table) *analyzer {
	re := glyph.NewRenderer()
	a := &analyzer{
		table:  table,
		re:     re,
		cmp:    ssim.New(ssim.DefaultWindow),
		geo:    NewGeomCache(re),
		foldOf: make(map[rune]byte),
		tri:    make(map[triKey]float64),
		blank:  make(map[[2]byte]float64),
	}
	rep := glyph.Composed()
	sort.Slice(rep, func(i, j int) bool { return rep[i] < rep[j] })
	for i := 0; i < len(simchar.Bases); i++ {
		a.rep = append(a.rep, rune(simchar.Bases[i]))
	}
	for _, r := range rep {
		if r >= 0x80 {
			a.rep = append(a.rep, r)
		}
	}
	for _, r := range a.rep {
		if b, ok := table.Fold(r); ok {
			a.foldOf[r] = b
		}
	}
	a.deriveIxFold()
	return a
}

// mergeRaw is the index fold-class merge threshold: base pairs whose
// cheapest cross-substitution costs less than this raw deficit at any
// interior or near-edge position render so alike that treating them as
// distinct would let three-substitution matches fit long brands'
// budgets — which would push most of a large catalog onto the
// always-rescan hard list and destroy the O(1) lookup. Folding such
// pairs into one class absorbs their substitutions into the exact
// skeleton key instead; merging is always completeness-safe (it can only
// widen a key's candidate set, and every candidate is rescored), it just
// trades a few false-positive rescores for a bounded key count.
//
// The first-position context is deliberately excluded from the merge
// criterion: the left border clamp makes nearly every substitution cheap
// there, so folding on it would chain the whole alphabet into one class.
// First-position cheapness is instead priced per brand by the analyzer
// (minOff[0]) and covered by ordinary single-hole and pair keys. After
// the transitive closure, every remaining cross-class substitution costs
// at least mergeRaw at every position except the first.
const mergeRaw = 4.5

// deriveIxFold measures every cross-base substitution deficit in the
// canonical context of each non-first edge class and merges pairs
// cheaper than mergeRaw into one class (union-find, smallest byte as
// representative).
func (a *analyzer) deriveIxFold() {
	for i := range a.ixFold {
		a.ixFold[i] = byte(i)
	}
	nb := len(simchar.Bases)
	baseRunes := make([]rune, nb)
	baseIdx := make(map[rune]int, nb)
	for i := 0; i < nb; i++ {
		baseRunes[i] = rune(simchar.Bases[i])
		baseIdx[baseRunes[i]] = i
	}
	// cost[i][j]: minimum (over edge classes) raw deficit of rendering
	// base j's glyph in a cell holding base i.
	cost := make([][]float64, nb)
	for i := range cost {
		cost[i] = make([]float64, nb)
		for j := range cost[i] {
			cost[i][j] = math.Inf(1)
		}
	}
	for i := 0; i < nb; i++ {
		cur := baseRunes[i]
		contexts := []struct {
			s   []rune
			pos int
		}{
			{[]rune{'o', cur, 'o', 'o', 'o'}, 1},
			{[]rune{'o', 'o', cur, 'o', 'o'}, 2},
			{[]rune{'o', 'o', 'o', cur}, 3},
		}
		for _, ctx := range contexts {
			m := len(ctx.s)
			rt := a.refTable(string(ctx.s), m)
			n := float64(windowCount(m))
			cellX := ctx.pos * glyph.CellWidth
			for _, g := range a.geo.Of(cur, baseRunes) {
				j := baseIdx[g.R]
				if j == i || g.DX0 == g.DX1 {
					continue
				}
				score, err := a.cmp.IndexRefSubPatch(rt,
					cellX+g.DX0, cellX+g.DX1, g.DY0, g.DY1, g.Patch)
				if err != nil {
					continue
				}
				if raw := (1 - score) * n; raw < cost[i][j] {
					cost[i][j] = raw
				}
			}
		}
	}
	// Union-find over bases; deterministic scan order.
	find := func(b byte) byte {
		for a.ixFold[b] != b {
			b = a.ixFold[b]
		}
		return b
	}
	for i := 0; i < nb; i++ {
		for j := i + 1; j < nb; j++ {
			if cost[i][j] >= mergeRaw && cost[j][i] >= mergeRaw {
				continue
			}
			ri, rj := find(simchar.Bases[i]), find(simchar.Bases[j])
			if ri == rj {
				continue
			}
			if ri > rj {
				ri, rj = rj, ri
			}
			a.ixFold[rj] = ri
		}
	}
	// Flatten to direct class-representative lookups.
	for i := 0; i < nb; i++ {
		b := simchar.Bases[i]
		a.ixFold[b] = find(b)
	}
}

// classOf returns the index fold class of a base byte (0 stays 0, the
// unfoldable sentinel).
func (a *analyzer) classOf(b byte) byte { return a.ixFold[b] }

// foldTable returns the serializable base-to-class map, indexed like
// simchar.Bases.
func (a *analyzer) foldTable() []byte {
	out := make([]byte, len(simchar.Bases))
	for i := 0; i < len(simchar.Bases); i++ {
		out[i] = a.ixFold[simchar.Bases[i]]
	}
	return out
}

// minOffRaw returns the minimum raw deficit of any off-family repertoire
// substitution at a position with the given context, using the trigram
// cache. prev/next are 0 at image borders.
func (a *analyzer) minOffRaw(prev, cur, next byte, edge uint8) float64 {
	k := triKey{prev, cur, next, edge}
	if v, ok := a.tri[k]; ok {
		return v
	}
	// Canonical renders reproducing the band geometry of each edge class
	// exactly (see edge-class derivation above): padding cells are far
	// enough from the band that they only contribute bit-identical
	// windows, which cancel out of the raw deficit.
	var s []rune
	var pos int
	switch edge {
	case edgeFirst:
		s, pos = []rune{rune(cur), pad(next), 'o', 'o', 'o'}, 0
	case edgeSecond:
		s, pos = []rune{pad(prev), rune(cur), pad(next), 'o', 'o'}, 1
	case edgeLast:
		s, pos = []rune{'o', 'o', pad(prev), rune(cur)}, 3
	default:
		s, pos = []rune{'o', pad(prev), rune(cur), pad(next), 'o'}, 2
	}
	v := a.minOffRawAt(string(s), pos, cur, len(s))
	a.tri[k] = v
	return v
}

// pad maps a border sentinel to a renderable filler; border cells are
// outside the affected band, so the filler never influences the result,
// but the canonical string must still be well-formed.
func pad(b byte) rune {
	if b == 0 {
		return 'o'
	}
	return rune(b)
}

// refTable renders s, m cells wide, as an SSIM reference. The analyzer's
// contexts are a few cells, far inside the kernel's size bound.
func (a *analyzer) refTable(s string, m int) *ssim.RefTable {
	rt, err := ssim.Precompute(a.re.RenderWidth(s, m*glyph.CellWidth))
	if err != nil {
		panic("candidx: " + err.Error())
	}
	return rt
}

// minOffRawAt renders s, then measures every off-family substitution of
// the repertoire at cell pos (whose base is cur) and returns the minimum
// raw deficit. m is the cell count of s.
func (a *analyzer) minOffRawAt(s string, pos int, cur byte, m int) float64 {
	rt := a.refTable(s, m)
	n := float64(windowCount(m))
	cellX := pos * glyph.CellWidth
	best := n // upper bound: every window zeroed
	for _, g := range a.geo.Of(rune(cur), a.rep) {
		if a.ixFold[a.foldOf[g.R]] == a.ixFold[cur] && a.foldOf[g.R] != 0 {
			continue // same index fold class: absorbed by the skeleton key
		}
		if g.DX0 == g.DX1 {
			// Pixel-identical to cur yet off-family would mean a free
			// substitution; the base bitmaps are distinct (pinned by
			// tests), so this only happens for cur itself.
			continue
		}
		score, err := a.cmp.IndexRefSubPatch(rt,
			cellX+g.DX0, cellX+g.DX1, g.DY0, g.DY1, g.Patch)
		if err != nil {
			continue
		}
		if raw := (1 - score) * n; raw < best {
			best = raw
		}
	}
	return best
}

// blankRaw returns the raw deficit of rendering the last cell (base cur,
// preceded by prev) as background — the cost floor of comparing a label
// one rune shorter than the brand.
func (a *analyzer) blankRaw(prev, cur byte) float64 {
	k := [2]byte{prev, cur}
	if v, ok := a.blank[k]; ok {
		return v
	}
	s := []rune{'o', 'o', pad(prev), rune(cur)}
	m := len(s)
	rt := a.refTable(string(s), m)
	n := float64(windowCount(m))
	g := BlankGeom(a.re, rune(cur))
	v := 0.0
	if g.DX0 != g.DX1 {
		cellX := 3 * glyph.CellWidth
		score, err := a.cmp.IndexRefSubPatch(rt,
			cellX+g.DX0, cellX+g.DX1, g.DY0, g.DY1, g.Patch)
		if err == nil {
			v = (1 - score) * n
		}
	}
	a.blank[k] = v
	return v
}

// brandAnalysis is the per-brand output of the analyzer.
type brandAnalysis struct {
	// minOff[i] is the minimum raw deficit of an off-family substitution
	// at position i.
	minOff []float64
	// blank is the raw deficit of the padded comparison (label one rune
	// shorter); <0 when the brand is a single cell (no padded class).
	blank float64
	// budget is the raw deficit budget (1-threshold scaled by the
	// window count of the brand's render).
	budget float64
}

// analyze computes the penalty profile of one brand skeleton (pure ASCII
// LDH bases, one byte per cell).
func (a *analyzer) analyze(skel []byte, threshold float64) brandAnalysis {
	m := len(skel)
	ba := brandAnalysis{
		minOff: make([]float64, m),
		blank:  -1,
		budget: (1 - threshold) * float64(windowCount(m)),
	}
	if m >= 5 {
		for i := 0; i < m; i++ {
			var prev, next byte
			if i > 0 {
				prev = skel[i-1]
			}
			if i < m-1 {
				next = skel[i+1]
			}
			ba.minOff[i] = a.minOffRaw(prev, skel[i], next, edgeClassOf(i, m))
		}
	} else {
		// Short labels: band clamping depends on the exact length, so
		// measure in place instead of through the canonical cache.
		rt := string(skel)
		for i := 0; i < m; i++ {
			ba.minOff[i] = a.minOffRawAt(rt, i, skel[i], m)
		}
	}
	if m >= 2 {
		ba.blank = a.blankRaw(skel[m-2], skel[m-1])
	}
	return ba
}
