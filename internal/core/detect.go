package core

import (
	"fmt"
	"image"
	"sort"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/confusables"
	"idnlab/internal/feat"
	"idnlab/internal/glyph"
	"idnlab/internal/idna"
	"idnlab/internal/ssim"
)

// HomographMatch is one detected homographic IDN.
type HomographMatch struct {
	// Domain is the IDN in ACE form.
	Domain string `json:"domain"`
	// Unicode is the display form.
	Unicode string `json:"unicode"`
	// Brand is the impersonated brand domain.
	Brand string `json:"brand"`
	// SSIM is the maximum structural-similarity index against the brand
	// set; 1.0 means a pixel-identical rendering.
	SSIM float64 `json:"ssim"`
}

// HomographDetector finds registered IDNs that render visually similar to
// brand domains (§VI-B). It is safe for sequential reuse; not for
// concurrent use (it owns reusable raster and summed-area-table scratch
// buffers). Concurrent scans give each goroutine a Clone, which shares
// all immutable state — brand list, candidate index, the glyph atlas and
// the prerendered brand rasters — at the cost of only the private scratch.
//
// A label is matched by probing the candidate index (indexed.go) and
// rescoring the few brands it returns. The one other generator is the
// brute sweep over every brand, selected by WithBrands without an index:
// the reference the index is proven against, never a serving path.
type HomographDetector struct {
	renderer *glyph.Renderer
	cmp      *ssim.Comparator
	// brandList is the catalog: the index's embedded one, or the
	// WithBrands list the reference sweep iterates.
	brandList []brands.Brand
	// brandRefs maps each brand label to its prerendered raster plus the
	// precomputed reference-side summed-area table — every Score call
	// against a known brand hits this cache and skips both the render and
	// a third of the SSIM table build. brandWidths caches the rendered
	// width (runes × CellWidth) and brandLens the rune count of each
	// brandList entry, indexed in step with brandList. brandRefs and
	// brandWidths are the process-wide brandCache unless the catalog holds
	// labels outside it; all three are immutable, so Clones share them
	// without synchronization.
	brandRefs   map[string]*ssim.RefTable
	brandWidths map[string]int
	brandLens   []int
	// scratch is the reusable candidate raster; scratchRef the reusable
	// reference raster for Score calls against labels outside the brand
	// set. Both are private to this instance (never shared by Clone).
	// scratch holds scratchLabel rendered one cell wider than itself, and
	// view is the narrower window of it a rescore reads (candidate).
	scratch      *image.Gray
	scratchRef   *image.Gray
	scratchLabel string
	view         image.Gray
	// index is the candidate index every lookup probes (nil only for the
	// reference sweep), and probe its private lookup scratch (never
	// shared by Clone).
	index *candidx.Index
	probe *candidx.Probe
	// stat, when set (WithStatModel), is the trained statistical
	// classifier run as a learned prefilter in front of the SSIM path:
	// labels scoring below the model's prefilter floor are shed before
	// any render or rescore. The model is immutable and shared by
	// Clones; counters aggregates observability counters across all
	// Clones of one construction (the pointer survives the copy in
	// Clone, so every worker increments the same atomics).
	stat     *feat.Model
	counters *detectorCounters
}

// detectorCounters are the detector family's shared observability
// counters, surfaced at /metrics by both the serving and watch tiers.
type detectorCounters struct {
	// rescoreEarlyExit counts bounded rescores (ScoreBounded against a
	// known brand) the kernel proved below their floor without computing
	// the exact score.
	rescoreEarlyExit atomic.Uint64
	// prefilterPass / prefilterShed count statistical-prefilter
	// admissions and sheds of the expensive homograph path.
	prefilterPass atomic.Uint64
	prefilterShed atomic.Uint64
}

// DetectorStats is the wire form of the detector family's shared
// counters. The rescore_early_exit key is the contract both idnserve
// and idnwatch expose at /metrics.
type DetectorStats struct {
	RescoreEarlyExit uint64 `json:"rescore_early_exit"`
	PrefilterPass    uint64 `json:"prefilter_pass"`
	PrefilterShed    uint64 `json:"prefilter_shed"`
	StatLoaded       bool   `json:"stat_loaded"`
}

// Stats snapshots the counters aggregated across this detector and all
// its Clones.
func (d *HomographDetector) Stats() DetectorStats {
	return DetectorStats{
		RescoreEarlyExit: d.counters.rescoreEarlyExit.Load(),
		PrefilterPass:    d.counters.prefilterPass.Load(),
		PrefilterShed:    d.counters.prefilterShed.Load(),
		StatLoaded:       d.stat != nil,
	}
}

// StatModel returns the attached statistical model, nil when the
// detector runs without the learned prefilter.
func (d *HomographDetector) StatModel() *feat.Model { return d.stat }

// HomographOption configures the detector.
type HomographOption func(*HomographDetector)

// WithStatModel attaches a trained statistical classifier as a learned
// prefilter: DetectNormalized scores the label first and sheds
// everything below the model's prefilter floor without rendering a
// pixel. With no model attached (the default) detection is bit-
// identical to the pre-ensemble behavior.
func WithStatModel(m *feat.Model) HomographOption {
	return func(d *HomographDetector) { d.stat = m }
}

// NewHomographDetector builds a detector over the top-k brand list: it
// probes the process-wide index for brands.TopK(topK) (defaultIndex),
// unless WithIndex attaches another index or WithBrands selects the
// reference sweep, in which case topK is ignored.
func NewHomographDetector(topK int, opts ...HomographOption) *HomographDetector {
	d := &HomographDetector{
		renderer: glyph.NewRenderer(),
		cmp:      ssim.New(ssim.DefaultWindow),
		counters: &detectorCounters{},
	}
	for _, o := range opts {
		o(d)
	}
	d.resolveBrandSetup(topK)
	// Score, the rescore and AvailabilityStudy all reference brands at
	// exactly their own width, so the shared prerender cache covers every
	// hot-path render and half of every hot-path integral-image build. A
	// catalog with labels outside it gets private prerenders on top, so
	// Score stays on the precomputed-table path for every brand.
	d.brandRefs, d.brandWidths = extendBrandCache(d.renderer, d.brandList)
	d.brandLens = make([]int, len(d.brandList))
	for i, b := range d.brandList {
		d.brandLens[i] = utf8.RuneCountInString(b.Label())
	}
	return d
}

// brandCache prerenders every brand label in the fixed top-1000 list at
// its own width and precomputes the reference-side SSIM table for each,
// once per process. The brand list is a global constant, so detectors
// (and benchmark loops that construct a fresh study per pass) all share
// one immutable cache instead of re-rendering a thousand rasters per
// construction. ~9 MB resident for the full list, held for the process
// lifetime.
var (
	brandCacheOnce   sync.Once
	brandCacheRefs   map[string]*ssim.RefTable
	brandCacheWidths map[string]int
)

func brandCache() (map[string]*ssim.RefTable, map[string]int) {
	brandCacheOnce.Do(func() {
		all := brands.List()
		re := glyph.NewRenderer()
		brandCacheRefs = make(map[string]*ssim.RefTable, len(all))
		brandCacheWidths = make(map[string]int, len(all))
		for _, b := range all {
			label := b.Label()
			if _, dup := brandCacheRefs[label]; dup {
				continue
			}
			width := utf8.RuneCountInString(label) * glyph.CellWidth
			rt, err := ssim.Precompute(re.RenderWidth(label, width))
			if err != nil {
				// The list is a compiled-in constant of DNS labels.
				panic("core: brand cache: " + err.Error())
			}
			brandCacheWidths[label] = width
			brandCacheRefs[label] = rt
		}
	})
	return brandCacheRefs, brandCacheWidths
}

// defaultIndex returns the candidate index compiled from brands.TopK(k),
// the catalog of every detector built without WithIndex or WithBrands.
// It is built at most once per process per catalog depth (one build of
// the top-1000 costs ~50 ms), so the study, every classifier and every
// worker of a command share one image — byte-identical to what
// `idnindex build -top k` writes.
var (
	defaultIndexMu sync.Mutex
	defaultIndexes = make(map[int]*candidx.Index)
)

func defaultIndex(topK int) *candidx.Index {
	list := brands.TopK(topK)
	defaultIndexMu.Lock()
	defer defaultIndexMu.Unlock()
	ix := defaultIndexes[len(list)]
	if ix == nil {
		var err error
		if ix, err = candidx.Build(list, candidx.BuildOptions{}); err != nil {
			// The catalog is a compiled-in constant; a failed build is a bug.
			panic("core: default candidate index: " + err.Error())
		}
		defaultIndexes[len(list)] = ix
	}
	return ix
}

// Clone returns a detector that shares this detector's immutable state —
// brand list and index, renderer (itself backed by the process-wide
// glyph atlas) and the prerendered brand rasters — while owning fresh
// private scratch buffers. Clones are cheap (no brand re-rendering, no
// index rebuild) and safe to use concurrently with each other and with
// the original, as long as each individual detector stays on one
// goroutine.
func (d *HomographDetector) Clone() *HomographDetector {
	// The struct copy carries the stat model and the counters pointer:
	// clones score through the same immutable model and aggregate into
	// the same shared counters.
	c := *d
	c.cmp = ssim.New(ssim.DefaultWindow)
	c.scratch = nil
	c.scratchRef = nil
	c.scratchLabel = ""
	c.view = image.Gray{}
	c.probe = nil
	return &c
}

// Threshold returns the SSIM detection threshold, candidx.SSIMThreshold.
func (d *HomographDetector) Threshold() float64 { return candidx.SSIMThreshold }

// candidate returns label rendered at width pixels. The label is
// rendered once, one cell wider than itself, and every width up to that
// is a view of the same raster: RenderWidthInto is column-local (padding
// is background, truncation drops columns), so each view is
// pixel-identical to rendering at its width. A brand one rune longer or
// shorter than the label — every brand the rescore reaches — needs no
// second render; a wider target renders again.
func (d *HomographDetector) candidate(label string, width int) *image.Gray {
	if d.scratch == nil || label != d.scratchLabel || width > d.scratch.Rect.Dx() {
		full := max(width, (utf8.RuneCountInString(label)+1)*glyph.CellWidth)
		d.scratch = d.renderer.RenderWidthInto(d.scratch, label, full)
		d.scratchLabel = label
	}
	d.view = image.Gray{Pix: d.scratch.Pix, Stride: d.scratch.Stride, Rect: image.Rect(0, 0, width, glyph.CellHeight)}
	return &d.view
}

// Score computes the SSIM between an IDN label and a brand label, rendered
// at the brand's width. When brandLabel is in the brand set the reference
// raster and its precomputed summed-area table come from the construction-
// time cache; the candidate raster reuses the detector's scratch buffer
// and is itself memoized across consecutive calls with the same label
// (the brute-force brand sweep). In steady state a Score call allocates
// nothing.
func (d *HomographDetector) Score(label, brandLabel string) float64 {
	width, known := d.brandWidths[brandLabel]
	if !known {
		width = utf8.RuneCountInString(brandLabel) * glyph.CellWidth
	}
	cand := d.candidate(label, width)
	var v float64
	var err error
	if known {
		v, err = d.cmp.IndexRef(d.brandRefs[brandLabel], cand)
	} else {
		d.scratchRef = d.renderer.RenderWidthInto(d.scratchRef, brandLabel, width)
		v, err = d.cmp.Index(d.scratchRef, cand)
	}
	if err != nil {
		return -1
	}
	return v
}

// ScoreBounded is Score for rescore loops that only act on scores at or
// above min — the index-backed detection path, where most candidates
// fall short of the threshold and the exact deficit is irrelevant. It
// returns (score, true) with score identical to Score's when the score
// is at least min, and (s, false) — guaranteeing Score would return
// strictly less than min, with s not necessarily the score — otherwise.
// Against a known brand the kernel scores only the rectangle where the
// candidate differs from the brand (ssim.IndexRefBounded).
func (d *HomographDetector) ScoreBounded(label, brandLabel string, min float64) (float64, bool) {
	width, known := d.brandWidths[brandLabel]
	if !known {
		width = utf8.RuneCountInString(brandLabel) * glyph.CellWidth
	}
	cand := d.candidate(label, width)
	if known {
		v, ok, err := d.cmp.IndexRefBounded(d.brandRefs[brandLabel], cand, min)
		if err != nil {
			return -1, false
		}
		if !ok {
			// The kernel proved the exact index falls below min; the
			// unknown-brand fallback below scores in full, so it never
			// counts.
			d.counters.rescoreEarlyExit.Add(1)
		}
		return v, ok
	}
	d.scratchRef = d.renderer.RenderWidthInto(d.scratchRef, brandLabel, width)
	v, err := d.cmp.Index(d.scratchRef, cand)
	if err != nil {
		return -1, false
	}
	return v, v >= min
}

// DetectNormalized returns the best brand match at or above the
// threshold for one normalized domain: callers normalize once at their
// boundary and reuse the result across the cache key and every detector,
// instead of paying the IDNA round-trip in each.
func (d *HomographDetector) DetectNormalized(n NormalizedDomain) (HomographMatch, bool) {
	if n.ASCII {
		return HomographMatch{}, false // homographs need non-ASCII content
	}
	var raw float64
	if d.stat != nil {
		raw = d.stat.ScoreLabel(n.Label, idna.SLDLabel(n.ACE), idna.TLD(n.ACE))
	}
	m, _, ok := d.detect(n, raw)
	return m, ok
}

// AdmitStat applies the statistical prefilter decision to a raw margin
// already computed by the caller (the ensemble classifier scores once
// and reuses the margin for both the verdict and the gate), updating
// the shared pass/shed counters. It must only be called with a model
// attached.
func (d *HomographDetector) AdmitStat(raw float64) bool {
	if raw < d.stat.PrefilterRaw() {
		d.counters.prefilterShed.Add(1)
		return false
	}
	d.counters.prefilterPass.Add(1)
	return true
}

// detect is the one homograph match path, for a non-ASCII label. With
// a statistical model attached, raw is the model's margin for the label
// (scored once by the caller) and the learned prefilter gates first;
// admitted reports its decision. Then the index: O(1) candidate probes
// plus a rescore of the few hits, bit-identical to the brute sweep by
// construction. The sweep itself runs only on a WithBrands reference
// detector.
func (d *HomographDetector) detect(n NormalizedDomain, raw float64) (m HomographMatch, admitted, ok bool) {
	if d.stat != nil && !d.AdmitStat(raw) {
		return HomographMatch{}, false, false // shed by the learned prefilter
	}
	label := n.Label
	best := HomographMatch{Domain: n.ACE, Unicode: n.Unicode, SSIM: -1}
	if d.index != nil {
		if i, score, found := d.BestIndexed(label); found {
			best.Brand, best.SSIM = d.brandList[i].Domain, score
		}
	} else {
		labelLen := utf8.RuneCountInString(label)
		for i, b := range d.brandList {
			// Pair-wise over all brands, skipping only wildly different
			// lengths (SSIM over padded images cannot reach the threshold
			// with more than one cell of length difference). Rune counts
			// come from the construction-time cache.
			if diff := labelLen - d.brandLens[i]; diff > 1 || diff < -1 {
				continue
			}
			// The certified kernel at floor max(threshold, best): a
			// score below it cannot be the match, and the strict >
			// keeps the first of equal brands.
			if score, ok := d.ScoreBounded(label, b.Label(), max(candidx.SSIMThreshold, best.SSIM)); ok && score > best.SSIM {
				best.SSIM = score
				best.Brand = b.Domain
			}
		}
	}
	if best.SSIM >= candidx.SSIMThreshold {
		return best, true, true
	}
	return HomographMatch{}, true, false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// SemanticMatch is one detected Type-1 semantic IDN.
type SemanticMatch struct {
	// Domain is the IDN in ACE form.
	Domain string `json:"domain"`
	// Unicode is the display form.
	Unicode string `json:"unicode"`
	// Brand is the brand whose label the ASCII residue equals.
	Brand string `json:"brand"`
	// Keyword is the non-ASCII remainder of the label.
	Keyword string `json:"keyword"`
}

// SemanticDetector finds Type-1 semantic IDNs: labels whose ASCII residue
// is identical to a brand label after removing all non-ASCII characters
// (§VII-A: the paper selects IDNs whose ASCII-only part renders with SSIM
// exactly 1.0 against a brand — string identity under a shared renderer).
type SemanticDetector struct {
	brandsByLabel map[string]brands.Brand
}

// newSemanticDetector builds a detector over a brand catalog; the first
// brand with a given label wins.
func newSemanticDetector(list []brands.Brand) *SemanticDetector {
	d := &SemanticDetector{brandsByLabel: make(map[string]brands.Brand, len(list))}
	for _, b := range list {
		if _, dup := d.brandsByLabel[b.Label()]; !dup {
			d.brandsByLabel[b.Label()] = b
		}
	}
	return d
}

// DetectNormalized checks one normalized domain for Type-1 semantic
// abuse; see HomographDetector.DetectNormalized for the sharing
// rationale.
func (d *SemanticDetector) DetectNormalized(n NormalizedDomain) (SemanticMatch, bool) {
	if n.ASCII {
		return SemanticMatch{}, false // needs at least one non-ASCII rune
	}
	// The residue is built on the stack and looked up without a string
	// (a DNS label's residue fits the buffer); only a match builds the
	// keyword string. A byte below 0x80 is an ASCII rune in any UTF-8.
	var buf [64]byte
	residue := buf[:0]
	for i := 0; i < len(n.Label); i++ {
		if c := n.Label[i]; c < utf8.RuneSelf {
			residue = append(residue, c)
		}
	}
	if len(residue) == 0 || len(residue) == len(n.Label) {
		return SemanticMatch{}, false
	}
	b, ok := d.brandsByLabel[string(residue)]
	if !ok {
		return SemanticMatch{}, false
	}
	keyword := buf[:0]
	for _, r := range n.Label {
		if r >= utf8.RuneSelf {
			keyword = utf8.AppendRune(keyword, r)
		}
	}
	return SemanticMatch{Domain: n.ACE, Unicode: n.Unicode, Brand: b.Domain, Keyword: string(keyword)}, true
}

// BrandRanking aggregates detected matches per brand — the shape of
// Tables XIII and XIV.
type BrandRanking struct {
	Brand string `json:"brand"`
	Count int    `json:"count"`
}

// RankBrands counts matches per brand, descending.
func RankBrands[T any](matches []T, brandOf func(T) string) []BrandRanking {
	counts := make(map[string]int)
	for _, m := range matches {
		counts[brandOf(m)]++
	}
	out := make([]BrandRanking, 0, len(counts))
	for b, n := range counts {
		out = append(out, BrandRanking{Brand: b, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Brand < out[j].Brand
	})
	return out
}

// AvailabilityResult summarizes the §VI-D availability study for one
// brand.
type AvailabilityResult struct {
	Brand       string
	Candidates  int // single-substitution variants generated
	Homographic int // variants scoring at or above the threshold
	Registered  int // homographic variants already in the corpus
}

// GenerationOverlapThreshold is the ink-overlap bound for the loose
// candidate-generation table used by the availability study. It is
// deliberately below the detection table's threshold so the generated
// space includes weak lookalikes that SSIM then filters out — matching the
// paper's 42,671-of-128,432 survivor ratio under UC-SimList.
const GenerationOverlapThreshold = 0.60

// availabilityTLDBit maps a study TLD to its bit in the registration
// bitmask ("com"=1, "net"=2, "org"=4; 0 for any other TLD).
func availabilityTLDBit(tld string) uint8 {
	switch tld {
	case "com":
		return 1
	case "net":
		return 2
	case "org":
		return 4
	}
	return 0
}

// AvailabilityStudyReg generates the single-substitution candidate space
// for the top-k brands, scores it with SSIM, and checks registration
// against regUni (Unicode SLD label → study-TLD bitmask, as built by
// Index.AvailabilityReg) — Figures 6 and 7.
//
// The sweep exploits the single-substitution structure: no candidate is
// ever rendered. For each position × homoglyph pair, the diff bounding box
// of the two glyph cells (glyph.DiffBox) tells the SSIM kernel exactly
// which pixels the substitution can change; the homoglyph's pixels inside
// that box are emitted as a tiny patch (glyph.AppendPatch) and scored
// directly against the brand's precomputed reference table
// (ssim.IndexRefSubPatch), which computes real window statistics only for
// windows overlapping the box. Candidate strings are materialized only as
// a reusable key buffer for the few variants that clear the threshold, and
// their registration check is one map lookup (matching ACE-set membership
// exactly: punycode is a bijection between valid Unicode labels and their
// ACE forms). Scores and counts are identical to the render-and-Score loop
// — pinned by TestAvailabilityStudyEquivalence.
func (d *HomographDetector) AvailabilityStudyReg(topK int, regUni map[string]uint8) []AvailabilityResult {
	// A few milliseconds to build, once per sweep: the report runs one.
	genTable := confusables.BuildMulti(GenerationOverlapThreshold)
	var out []AvailabilityResult
	keyBuf := make([]byte, 0, 64)
	// Candidate geometry is a pure function of the (base, homoglyph) glyph
	// pair: the diff bounding box and the homoglyph's pixels inside it.
	// There are only a few dozen bases with a few dozen homoglyphs each,
	// while the sweep visits tens of thousands of (brand, position,
	// homoglyph) triples — so the boxes and patches are computed once per
	// base and replayed everywhere that letter appears. The memoization
	// lives in candidx.GeomCache, the same expansion the candidate-index
	// builder runs offline; geometry is computed by one code path whether
	// the sweep happens at build time or report time.
	geoCache := candidx.NewGeomCache(d.renderer)
	candsOf := func(base rune) []candidx.SubGeom {
		return geoCache.Of(base, genTable.Homoglyphs(base))
	}
	for _, b := range brands.TopK(topK) {
		label := b.Label()
		res := AvailabilityResult{Brand: b.Domain}
		// Every brands.TopK label is prerendered: brandRefs is brandCache
		// (all of brands.List()) or a superset of it.
		rt := d.brandRefs[label]
		cellIdx := 0
		for byteOff, base := range label {
			i := cellIdx
			cellIdx++
			list := candsOf(base)
			if len(list) == 0 {
				continue
			}
			baseLen := utf8.RuneLen(base)
			cellX := i * glyph.CellWidth
			for ci := range list {
				cnd := &list[ci]
				res.Candidates++
				// For a pixel-identical homoglyph (empty box) the candidate
				// raster equals the brand raster and the score is exactly
				// 1.0 without touching the kernel.
				if cnd.DX0 == cnd.DX1 {
					if 1.0 < candidx.SSIMThreshold {
						continue
					}
				} else {
					above, err := d.cmp.RefSubPatchAbove(rt,
						cellX+cnd.DX0, cellX+cnd.DX1, cnd.DY0, cnd.DY1,
						cnd.Patch, candidx.SSIMThreshold)
					if err != nil || !above {
						continue
					}
				}
				res.Homographic++
				// Splice the variant into the reusable key buffer; the
				// map lookup on string(keyBuf) compiles without a copy.
				keyBuf = append(keyBuf[:0], label[:byteOff]...)
				keyBuf = utf8.AppendRune(keyBuf, cnd.R)
				keyBuf = append(keyBuf, label[byteOff+baseLen:]...)
				res.Registered += tldBitCount(regUni[string(keyBuf)])
			}
		}
		out = append(out, res)
	}
	return out
}

// tldBitCount counts the set bits of a study-TLD registration bitmask.
func tldBitCount(b uint8) int {
	return int(b&1 + b>>1&1 + b>>2&1)
}

// String renders a match for logs and examples.
func (m HomographMatch) String() string {
	return fmt.Sprintf("%s (%s) ~ %s [SSIM %.3f]", m.Unicode, m.Domain, m.Brand, m.SSIM)
}

// String renders a semantic match.
func (m SemanticMatch) String() string {
	return fmt.Sprintf("%s (%s) = %s + %q", m.Unicode, m.Domain, m.Brand, m.Keyword)
}
