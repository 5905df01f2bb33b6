// Package idnlab reproduces the measurement study "A Reexamination of
// Internationalized Domain Names: the Good, the Bad and the Ugly"
// (Liu et al., DSN 2018) as a reusable Go library.
//
// The package is a thin, stable facade over the internal implementation:
//
//   - Generate/Assemble build a synthetic-but-calibrated study universe
//     (zone files, WHOIS, passive DNS, blacklists, certificates, web
//     content) at a configurable fraction of the paper's 1.47M-IDN scale;
//   - Study runs every measurement and renders each of the paper's tables
//     and figures;
//   - the detectors find homographic IDNs (visual confusability via a
//     bitmap renderer + SSIM, §VI) and Type-1 semantic IDNs (brand +
//     foreign keyword, §VII) in any domain corpus — including real ones;
//   - ToASCII/ToUnicode/IsIDN expose the from-scratch IDNA/Punycode layer
//     for standalone use.
//
// Quick start:
//
//	ds, err := idnlab.NewDataset(1, 100) // seed 1, 1/100 of paper scale
//	if err != nil { ... }
//	study := idnlab.NewStudy(ds)
//	err = study.Run(os.Stdout) // prints every table and figure
//
// Or check a single domain:
//
//	det := idnlab.NewHomographDetector(1000)
//	if m, ok := det.DetectOne("xn--pple-43d.com"); ok {
//	    fmt.Println(m) // аpple.com (xn--pple-43d.com) ~ apple.com [SSIM 1.000]
//	}
package idnlab

import (
	"context"

	"idnlab/internal/browser"
	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/pipeline"
	"idnlab/internal/punycode"
	"idnlab/internal/zonegen"
)

// Re-exported core types. See the internal packages for full
// documentation of each method.
type (
	// Dataset is an assembled study corpus with all auxiliary stores.
	Dataset = core.Dataset
	// Study runs the full measurement and renders the paper's tables.
	Study = core.Study
	// HomographDetector finds visually confusable IDNs (paper §VI).
	HomographDetector = core.HomographDetector
	// SemanticDetector finds Type-1 semantic IDNs (paper §VII).
	SemanticDetector = core.SemanticDetector
	// HomographMatch is a homograph detection result.
	HomographMatch = core.HomographMatch
	// SemanticMatch is a semantic detection result.
	SemanticMatch = core.SemanticMatch
	// Type2Detector finds translated-brand IDNs (paper Table X).
	Type2Detector = core.Type2Detector
	// Type2Match is a Type-2 detection result.
	Type2Match = core.Type2Match
	// DetectorConfig configures per-worker detectors for pipelined scans.
	DetectorConfig = core.DetectorConfig
	// ScanMetrics is a per-stage snapshot of a pipelined corpus scan:
	// items in/out, errors, per-worker busy time, throughput.
	ScanMetrics = pipeline.Metrics
	// GenConfig parameterizes synthetic-universe generation.
	GenConfig = zonegen.Config
	// Registry is the generated synthetic universe.
	Registry = zonegen.Registry
	// BrowserProfile describes one surveyed browser build (Table XI).
	BrowserProfile = browser.Profile
)

// DefaultScale is the default down-scaling divisor relative to the
// paper's corpus (1,472,836 IDNs at scale 1).
const DefaultScale = zonegen.DefaultScale

// DefaultSSIMThreshold is the homograph detection threshold in this
// renderer's SSIM space (the analog of the paper's 0.95).
const DefaultSSIMThreshold = core.DefaultSSIMThreshold

// NewDataset generates a synthetic universe with the given seed and scale
// divisor and assembles the study corpus from it (zone scan plus all
// auxiliary stores).
func NewDataset(seed uint64, scale int) (*Dataset, error) {
	return core.NewDefaultDataset(seed, scale)
}

// Generate synthesizes just the registry (ground truth) without
// assembling the measurement corpus.
func Generate(cfg GenConfig) *Registry {
	return zonegen.Generate(cfg)
}

// Assemble builds the study corpus from a generated registry.
func Assemble(reg *Registry) (*Dataset, error) {
	return core.Assemble(reg)
}

// NewStudy wires a full study (language classifier + both detectors) over
// an assembled dataset.
func NewStudy(ds *Dataset) *Study {
	return core.NewStudy(ds)
}

// NewHomographDetector builds a homograph detector over the top-k brand
// list. Options: core.WithThreshold, core.WithoutPrefilter (re-exported
// below).
func NewHomographDetector(topK int, opts ...core.HomographOption) *HomographDetector {
	return core.NewHomographDetector(topK, opts...)
}

// WithThreshold overrides the detector's SSIM threshold.
func WithThreshold(t float64) core.HomographOption { return core.WithThreshold(t) }

// WithoutPrefilter switches the detector to brute-force pair-wise SSIM.
func WithoutPrefilter() core.HomographOption { return core.WithoutPrefilter() }

// NewSemanticDetector builds a Type-1 semantic detector over the top-k
// brand list.
func NewSemanticDetector(topK int) *SemanticDetector {
	return core.NewSemanticDetector(topK)
}

// NewType2Detector builds a translated-brand detector; pass nil to use
// the built-in brand translation dictionary.
func NewType2Detector(dict map[string][]string) *Type2Detector {
	return core.NewType2Detector(dict)
}

// ScanHomograph scans a corpus for homographic IDNs through the
// streaming pipeline engine: one detector per worker, order-preserving
// fan-in, clean cancellation via ctx. The matches are identical to a
// sequential Detect (sorted by brand then domain); workers <= 0 selects
// GOMAXPROCS.
func ScanHomograph(ctx context.Context, cfg DetectorConfig, domains []string, workers int) ([]HomographMatch, ScanMetrics, error) {
	return core.ScanHomograph(ctx, cfg, domains, workers)
}

// ScanSemantic scans a corpus for Type-1 semantic IDNs through the
// streaming pipeline engine; same contract as ScanHomograph.
func ScanSemantic(ctx context.Context, topK int, domains []string, workers int) ([]SemanticMatch, ScanMetrics, error) {
	return core.ScanSemantic(ctx, topK, domains, workers)
}

// ToASCII converts a Unicode domain to its ASCII-compatible (Punycode)
// form, e.g. "波色.com" -> "xn--0wwy37b.com".
func ToASCII(domain string) (string, error) { return idna.ToASCII(domain) }

// ToUnicode converts an ACE domain to its Unicode display form.
func ToUnicode(domain string) (string, error) { return idna.ToUnicode(domain) }

// IsIDN reports whether a domain (in either form) is internationalized.
func IsIDN(domain string) bool { return idna.IsIDN(domain) }

// EncodeLabel and DecodeLabel expose raw RFC 3492 Punycode for single
// labels without the "xn--" prefix handling.
func EncodeLabel(label string) (string, error) { return punycode.Encode(label) }

// DecodeLabel decodes a raw Punycode label.
func DecodeLabel(label string) (string, error) { return punycode.Decode(label) }

// BrowserSurvey returns the ten-browser, three-platform profile matrix of
// the paper's Table XI.
func BrowserSurvey() []BrowserProfile { return browser.Survey() }

// EvaluateBrowser derives the Table XI outcome cell for a profile by
// running its display policy against the attack corpus.
func EvaluateBrowser(p BrowserProfile) string { return browser.Evaluate(p).String() }
