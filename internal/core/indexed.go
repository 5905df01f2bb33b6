package core

import (
	"unicode/utf8"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/glyph"
	"idnlab/internal/ssim"
)

// Index-backed detection. A precomputed candidate index (package
// candidx) replaces the O(brands) SSIM sweep with a handful of hash
// probes that return the only brands a label could plausibly imitate;
// those few candidates are then rescored with the detector's own Score,
// so the verdict — including the exact SSIM value and the first-at-max
// tie-break — is bit-identical to the brute sweep's. The sweep itself is
// retained only as the specification: `idnindex verify` and the
// equivalence tests compare the index against it (WithBrands).

// WithBrands selects the reference brute sweep over an explicit catalog:
// every label is scored against every length-compatible brand, the
// paper's pair-wise mode (102 hours on their corpus), on the certified
// ScoreBounded kernel at floor max(threshold, best) — the same verdict
// as full Score, which a sampled test still sweeps with. Reference
// rasters are prerendered for any label outside the shared top-1000
// cache. The topK constructor argument is ignored; WithIndex wins when
// both are given.
func WithBrands(list []brands.Brand) HomographOption {
	return func(d *HomographDetector) { d.brandList = list }
}

// WithIndex attaches a precomputed candidate index (built by idnindex,
// loaded with candidx.LoadFile) in place of the process-wide default.
// The detector's brand catalog becomes the index's embedded catalog (the
// index's brand IDs must resolve against the exact list it was compiled
// from). candidx.Load has already refused an index compiled for another
// threshold.
func WithIndex(ix *candidx.Index) HomographOption {
	return func(d *HomographDetector) { d.index = ix }
}

// resolveBrandSetup finishes construction after options ran: the catalog
// is the attached index's; a WithBrands list without an index stays the
// reference sweep's; otherwise the detector probes the default index.
func (d *HomographDetector) resolveBrandSetup(topK int) {
	if d.index == nil && d.brandList != nil {
		return
	}
	if d.index == nil {
		d.index = defaultIndex(topK)
	}
	d.brandList = d.index.Brands()
}

// extendBrandCache returns ref/width maps covering every label in list:
// the process-wide brandCache itself when it already does, else a copy
// extended with prerenders of the missing labels. The shared maps are
// never mutated.
func extendBrandCache(re *glyph.Renderer, list []brands.Brand) (map[string]*ssim.RefTable, map[string]int) {
	refs, widths := brandCache()
	missing := false
	for _, b := range list {
		if _, ok := refs[b.Label()]; !ok {
			missing = true
			break
		}
	}
	if !missing {
		return refs, widths
	}
	nr := make(map[string]*ssim.RefTable, len(refs)+len(list))
	nw := make(map[string]int, len(widths)+len(list))
	for k, v := range refs {
		nr[k] = v
	}
	for k, v := range widths {
		nw[k] = v
	}
	for _, b := range list {
		label := b.Label()
		if _, ok := nr[label]; ok {
			continue
		}
		w := utf8.RuneCountInString(label) * glyph.CellWidth
		rt, err := ssim.Precompute(re.RenderWidth(label, w))
		if err != nil {
			// Longer than any DNS label: Score refuses it (-1), so the
			// brand never matches.
			continue
		}
		nw[label] = w
		nr[label] = rt
	}
	return nr, nw
}

// Index returns the candidate index the detector probes; nil only on a
// WithBrands reference detector.
func (d *HomographDetector) Index() *candidx.Index { return d.index }

// BestIndexed is the one index-backed match loop, shared by
// DetectNormalized and the watch tier's Matcher: probe the index for the
// label's candidate brands (plus the always-rescore hard list), rescore
// them in brand-catalog order with strict-greater tracking, and apply
// the threshold. It returns the winning brand's position in the index's
// catalog and its exact SSIM, by value; after the first call it
// allocates nothing. Candidates arrive sorted ascending, so the sweep's
// first-at-max tie-break is preserved. The detector must have an index
// attached (Index() != nil).
//
// Rescoring runs through ScoreBounded with the floor max(threshold,
// best): a candidate can only change the verdict by scoring at least the
// threshold AND strictly above the best exact score so far, so any
// candidate the bounded kernel proves below the floor is skipped without
// finishing its window sweep. Scores at or above the floor come back
// bit-identical to Score, so the returned match — brand, SSIM and
// first-at-max tie-break — is unchanged from the full-rescore path (the
// sweep-equivalence property tests pin this).
func (d *HomographDetector) BestIndexed(label string) (brand int, score float64, ok bool) {
	if d.probe == nil {
		d.probe = &candidx.Probe{}
	}
	score = -1
	floor := candidx.SSIMThreshold
	labelLen := utf8.RuneCountInString(label)
	for _, id := range d.index.Candidates(label, d.probe) {
		i := int(id)
		if diff := labelLen - d.brandLens[i]; diff > 1 || diff < -1 {
			continue
		}
		if s, reached := d.ScoreBounded(label, d.brandList[i].Label(), floor); reached && s > score {
			brand, score, floor = i, s, s
		}
	}
	return brand, score, score >= candidx.SSIMThreshold
}
