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
// retained as the out-of-index fallback (no index loaded, or an index
// compiled for a different threshold) and as the equivalence oracle in
// the property tests.

// WithBrands replaces the detector's brand catalog with an explicit
// list, prerendering reference rasters for any label outside the shared
// top-1000 cache so every Score call stays on the precomputed-table
// path. The topK constructor argument is ignored when this option is
// used.
func WithBrands(list []brands.Brand) HomographOption {
	return func(d *HomographDetector) { d.customBrands = list }
}

// WithIndex attaches a precomputed candidate index. The detector's brand
// catalog becomes the index's embedded catalog (the index's brand IDs
// must resolve against the exact list it was compiled from), and
// DetectNormalized consults the index before any sweep. An index
// compiled for a different threshold than the detector's is ignored:
// the detector silently falls back to the brute sweep, which is always
// correct, rather than serve verdicts from a mismatched expansion.
func WithIndex(ix *candidx.Index) HomographOption {
	return func(d *HomographDetector) { d.index = ix }
}

// resolveBrandSetup finishes construction after options ran: it picks
// the brand catalog (index catalog > explicit list > global top-k) and
// extends the shared prerender cache with any labels it misses.
func (d *HomographDetector) resolveBrandSetup(topK int) {
	if d.index != nil {
		if d.index.Threshold() != d.threshold {
			d.index = nil // mismatched compilation; sweep stays authoritative
		} else {
			d.customBrands = d.index.Brands()
		}
	}
	if d.customBrands != nil {
		d.brandList = d.customBrands
	} else {
		d.brandList = brands.TopK(topK)
	}
}

// extendBrandCache returns ref/width maps covering every label in list,
// reusing the process-wide cache's entries and rendering only the
// missing ones. The shared maps are never mutated.
func extendBrandCache(re *glyph.Renderer, refs map[string]*ssim.RefTable,
	widths map[string]int, list []brands.Brand) (map[string]*ssim.RefTable, map[string]int) {
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
		nw[label] = w
		nr[label] = ssim.Precompute(re.RenderWidth(label, w))
	}
	return nr, nw
}

// Index returns the attached candidate index, if any.
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
	floor := d.threshold
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
	return brand, score, score >= d.threshold
}
