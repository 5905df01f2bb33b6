package core

import (
	"context"
	"sort"
	"sync"

	"idnlab/internal/candidx"
	"idnlab/internal/feat"
	"idnlab/internal/pipeline"
)

// Pipelined corpus scans. The paper's brute-force homograph sweep took
// 102 hours on a single machine (§VI-B); these scans push the same
// detectors through internal/pipeline's streaming engine: bounded input,
// one private detector per worker (the homograph renderer's glyph cache
// is not safe for concurrent use), order-preserving fan-in, per-stage
// metrics, and clean cancellation.
//
// The output contract is identical to the sequential Detect methods:
// matches sorted by brand then domain, byte for byte. The equivalence is
// pinned by property tests in scan_test.go across randomized corpora.
//
// The engine hands items out one at a time from a bounded queue, so
// every worker gets work whatever len(domains) and the worker count are
// (a pool that precomputed ceil(len/workers) shards once left workers
// idle — 8 domains across 6 workers made only 4 shards);
// TestScanWorkerCountEdge pins that.

// DetectorConfig captures how to build identical detector instances for a
// worker pool.
type DetectorConfig struct {
	// TopK is the brand-list depth: without Index, every instance probes
	// the process-wide index for brands.TopK(TopK).
	TopK int
	// Index, when set, attaches a precomputed candidate index to every
	// instance (WithIndex) in place of the default one.
	Index *candidx.Index
	// Stat, when set, attaches the statistical model to every instance
	// (WithStatModel): the model becomes the learned prefilter ahead of
	// the SSIM path and the third detector in ensemble verdicts.
	Stat *feat.Model
}

// detectorOptions resolves the config into the option list detector
// construction actually applies.
func (cfg DetectorConfig) detectorOptions() []HomographOption {
	var opts []HomographOption
	if cfg.Index != nil {
		opts = append(opts, WithIndex(cfg.Index))
	}
	if cfg.Stat != nil {
		opts = append(opts, WithStatModel(cfg.Stat))
	}
	return opts
}

// sortHomographMatches applies the canonical output ordering shared by
// Detect and ScanHomograph.
func sortHomographMatches(out []HomographMatch) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Brand != out[j].Brand {
			return out[i].Brand < out[j].Brand
		}
		return out[i].Domain < out[j].Domain
	})
}

// sortSemanticMatches is the semantic detector's canonical ordering.
func sortSemanticMatches(out []SemanticMatch) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Brand != out[j].Brand {
			return out[i].Brand < out[j].Brand
		}
		return out[i].Domain < out[j].Domain
	})
}

// NewHomographEngine builds a reusable pipeline stage that fans a domain
// stream across per-worker homograph detectors. workers <= 0 selects
// GOMAXPROCS.
//
// Workers share one lazily-built prototype detector: the first worker to
// receive an item constructs it (candidate index, prerendered brand
// rasters), and every worker — including the first — then operates on a
// Clone carrying only private scratch buffers. The
// expensive immutable state is therefore built once per engine instead of
// once per worker, and the glyph atlas is shared process-wide.
func NewHomographEngine(cfg DetectorConfig, workers int) *pipeline.Engine[string, HomographMatch, *HomographDetector] {
	var (
		once  sync.Once
		proto *HomographDetector
	)
	return pipeline.New(
		pipeline.Config{Stage: "homograph", Workers: workers},
		func() *HomographDetector {
			once.Do(func() { proto = NewHomographDetector(cfg.TopK, cfg.detectorOptions()...) })
			return proto.Clone()
		},
		func(d *HomographDetector, domain string) (HomographMatch, bool, error) {
			m, ok := d.DetectOne(domain)
			return m, ok, nil
		})
}

// NewSemanticEngine builds a reusable pipeline stage for Type-1 semantic
// detection with per-worker detectors.
func NewSemanticEngine(topK, workers int) *pipeline.Engine[string, SemanticMatch, *SemanticDetector] {
	return pipeline.New(
		pipeline.Config{Stage: "semantic", Workers: workers},
		func() *SemanticDetector { return NewSemanticDetector(topK) },
		func(d *SemanticDetector, domain string) (SemanticMatch, bool, error) {
			m, ok := d.DetectOne(domain)
			return m, ok, nil
		})
}

// ScanHomograph scans the corpus for homographic IDNs through the
// streaming engine and returns the matches (sorted by brand then domain,
// identical to a sequential Detect), plus the scan's metrics. It honors
// ctx cancellation mid-corpus: on cancel it drains cleanly and returns
// ctx.Err().
func ScanHomograph(ctx context.Context, cfg DetectorConfig, domains []string, workers int) ([]HomographMatch, pipeline.Metrics, error) {
	eng := NewHomographEngine(cfg, workers)
	out, err := eng.Collect(ctx, pipeline.FromSlice(domains))
	if err != nil {
		return nil, eng.Metrics(), err
	}
	sortHomographMatches(out)
	return out, eng.Metrics(), nil
}

// ScanSemantic scans the corpus for Type-1 semantic IDNs through the
// streaming engine; same contract as ScanHomograph.
func ScanSemantic(ctx context.Context, topK int, domains []string, workers int) ([]SemanticMatch, pipeline.Metrics, error) {
	eng := NewSemanticEngine(topK, workers)
	out, err := eng.Collect(ctx, pipeline.FromSlice(domains))
	if err != nil {
		return nil, eng.Metrics(), err
	}
	sortSemanticMatches(out)
	return out, eng.Metrics(), nil
}
