package core_test

// The benchmark harness regenerates every table and figure in the paper's
// evaluation. Each benchmark times one experiment end-to-end over the
// shared scale-1/100 universe and, when run with -v, logs the rendered
// rows so the output can be compared against the paper (see
// EXPERIMENTS.md for the side-by-side).
//
//	go test -bench=. -benchmem ./internal/core/
//	go test -bench=BenchmarkTable13 -v ./internal/core/   # rows included

import (
	"context"
	"image"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/core"
	"idnlab/internal/glyph"
	"idnlab/internal/punycode"
	"idnlab/internal/ssim"
	"idnlab/internal/zonegen"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
)

// study lazily assembles the shared benchmark universe.
func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := core.NewDefaultDataset(2018, 100)
		if err != nil {
			panic(err)
		}
		benchStudy = core.NewStudy(ds)
	})
	return benchStudy
}

// benchSection times one report section and logs its rows once.
func benchSection(b *testing.B, section func(io.Writer) error) {
	st := study(b)
	_ = st
	var sb strings.Builder
	if err := section(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := section(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)  { benchSection(b, study(b).ReportTable1) }
func BenchmarkTable2Languages(b *testing.B) { benchSection(b, study(b).ReportTable2) }

func BenchmarkFigure1CreationDates(b *testing.B) { benchSection(b, study(b).ReportFigure1) }

func BenchmarkTable3Registrants(b *testing.B) { benchSection(b, study(b).ReportTable3) }
func BenchmarkTable4Registrars(b *testing.B)  { benchSection(b, study(b).ReportTable4) }

func BenchmarkFigure2ActiveTime(b *testing.B)      { benchSection(b, study(b).ReportFigure2) }
func BenchmarkFigure3QueryVolume(b *testing.B)     { benchSection(b, study(b).ReportFigure3) }
func BenchmarkFigure4IPConcentration(b *testing.B) { benchSection(b, study(b).ReportFigure4) }

func BenchmarkTable5Usage(b *testing.B)        { benchSection(b, study(b).ReportTable5) }
func BenchmarkTable6Certificates(b *testing.B) { benchSection(b, study(b).ReportTable6) }
func BenchmarkTable7SharedCerts(b *testing.B)  { benchSection(b, study(b).ReportTable7) }

func BenchmarkTable8FacebookHomographs(b *testing.B) { benchSection(b, study(b).ReportTable8) }
func BenchmarkTable9SemanticExamples(b *testing.B)   { benchSection(b, study(b).ReportTable9) }

func BenchmarkTable10Type2Semantic(b *testing.B)   { benchSection(b, study(b).ReportTable10) }
func BenchmarkTable11BrowserSurvey(b *testing.B)   { benchSection(b, study(b).ReportTable11) }
func BenchmarkTable11bPolicyEffect(b *testing.B)   { benchSection(b, study(b).ReportTable11b) }
func BenchmarkTable12SSIMThreshold(b *testing.B)   { benchSection(b, study(b).ReportTable12) }
func BenchmarkTable13HomographBrands(b *testing.B) { benchSection(b, study(b).ReportTable13) }

func BenchmarkFigure5HomographDNS(b *testing.B)        { benchSection(b, study(b).ReportFigure5) }
func BenchmarkFigure6UnregisteredTraffic(b *testing.B) { benchSection(b, study(b).ReportFigure6) }
func BenchmarkFigure7Availability(b *testing.B)        { benchSection(b, study(b).ReportFigure7) }

func BenchmarkFigure7bMultiSub(b *testing.B)      { benchSection(b, study(b).ReportFigure7b) }
func BenchmarkTable14SemanticBrands(b *testing.B) { benchSection(b, study(b).ReportTable14) }
func BenchmarkFigure8SemanticDNS(b *testing.B)    { benchSection(b, study(b).ReportFigure8) }

// BenchmarkFullStudy regenerates the entire report (all tables and
// figures) per iteration.
func BenchmarkFullStudy(b *testing.B) {
	st := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RunContext(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateUniverse measures synthesis of the calibrated registry
// at several scales.
func BenchmarkGenerateUniverse(b *testing.B) {
	for _, scale := range []int{1000, 100} {
		b.Run(scaleName(scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = zonegen.Generate(zonegen.Config{Seed: 1, Scale: scale})
			}
		})
	}
}

func scaleName(scale int) string {
	return "scale-1/" + strings.TrimLeft(strings.Repeat("0", 0)+itoa(scale), " ")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Scan-engine benchmarks: the perf trajectory of internal/pipeline.
// Run with -benchmem; B/s is corpus bytes scanned per second. ---

// corpusBytes sums the ACE byte length of the scan corpus for SetBytes.
func corpusBytes(domains []string) int64 {
	var n int64
	for _, d := range domains {
		n += int64(len(d))
	}
	return n
}

// benchWorkerCounts is {1, 4, GOMAXPROCS} with duplicates removed, so
// the sub-benchmark names stay unique on small machines where
// GOMAXPROCS is 1 or 4.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkPipelineHomograph scans the full seed corpus through the
// streaming engine at 1, 4 and GOMAXPROCS workers. workers=1 is the
// sequential baseline; the acceptance bar is ≥2× at workers=4.
func BenchmarkPipelineHomograph(b *testing.B) {
	corpus := study(b).DS.IDNs
	nbytes := corpusBytes(corpus)
	for _, workers := range benchWorkerCounts() {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			cfg := core.DetectorConfig{TopK: 1000}
			b.SetBytes(nbytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ScanHomograph(context.Background(), cfg, corpus, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineSemantic is the Type-1 scan through the same engine.
func BenchmarkPipelineSemantic(b *testing.B) {
	corpus := study(b).DS.IDNs
	nbytes := corpusBytes(corpus)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			b.SetBytes(nbytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ScanSemantic(context.Background(), 1000, corpus, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequentialHomograph is the no-engine baseline the pipeline
// numbers are judged against (same corpus, one resident detector).
func BenchmarkSequentialHomograph(b *testing.B) {
	corpus := study(b).DS.IDNs
	det := core.NewHomographDetector(1000)
	b.SetBytes(corpusBytes(corpus))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(corpus)
	}
}

// --- Ablations: the design choices DESIGN.md calls out. ---

// BenchmarkAblationSSIMvsMSE compares the paper's metric choice (§VI-B:
// "Compared to traditional similarity metrics like MSE, SSIM strikes a
// good balance between accuracy and runtime performance").
func BenchmarkAblationSSIMvsMSE(b *testing.B) {
	re := glyph.NewRenderer()
	width := len("facebook") * glyph.CellWidth
	target := re.RenderWidth("facebook", width)
	attack := re.RenderWidth("facebооk", width)
	b.Run("SSIM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ssim.New(ssim.DefaultWindow).Index(target, attack); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MSE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mse(target, attack)
		}
	})
}

// mse is the mean squared error of two equal-sized images, the
// "traditional similarity metric" the paper weighs SSIM against.
func mse(a, b *image.Gray) float64 {
	w, h := a.Rect.Dx(), a.Rect.Dy()
	var sum float64
	for y := 0; y < h; y++ {
		rowA, rowB := a.Pix[y*a.Stride:], b.Pix[y*b.Stride:]
		for x := 0; x < w; x++ {
			d := float64(rowA[x]) - float64(rowB[x])
			sum += d * d
		}
	}
	return sum / float64(w*h)
}

// BenchmarkAblationPrefilter compares the index-probing detector against
// the paper's brute-force pair-wise sweep (102 hours on their testbed)
// on a fixed slice of the corpus, and fails if the index loses recall.
func BenchmarkAblationPrefilter(b *testing.B) {
	st := study(b)
	corpus := st.DS.IDNs
	if len(corpus) > 300 {
		corpus = corpus[:300]
	}
	fast := core.NewHomographDetector(1000)
	brute := core.NewHomographDetector(0, core.WithBrands(brands.TopK(1000)))
	fastN := len(fast.Detect(corpus))
	bruteN := len(brute.Detect(corpus))
	if fastN != bruteN {
		b.Fatalf("index and sweep disagree: %d vs %d matches", fastN, bruteN)
	}
	b.Logf("matches on %d-domain slice: index=%d brute=%d", len(corpus), fastN, bruteN)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fast.Detect(corpus)
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = brute.Detect(corpus)
		}
	})
}

// BenchmarkAblationWindowSize varies the SSIM sliding window.
func BenchmarkAblationWindowSize(b *testing.B) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	x := re.RenderWidth("facebook.com", width)
	y := re.RenderWidth("faceboоk.com", width)
	for _, win := range []int{4, 8, 11} {
		b.Run("win-"+itoa(win), func(b *testing.B) {
			c := ssim.New(win)
			for i := 0; i < b.N; i++ {
				if _, err := c.Index(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- SSIM hot-path benchmarks (PR 2): the integral-image kernel, the
// brand-raster cache and the zero-alloc render path, each next to the
// naive reference it replaced. The zero-alloc contracts are pinned by
// AllocsPerRun tests in internal/core, internal/ssim and internal/glyph. ---

// BenchmarkScore times one detector Score call (single pair, steady
// state): candidate rendered into the reusable scratch, brand raster from
// the prerendered cache, one integral-image SSIM. The acceptance bar is
// ≥5× over the pre-PR baseline with 0 allocs/op.
func BenchmarkScore(b *testing.B) {
	det := core.NewHomographDetector(1000)
	label, brand := "facebооk", "facebook" // Cyrillic о's
	if det.Score(label, brand) <= 0 {
		b.Fatal("sanity: score should be positive")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Score(label, brand)
	}
}

// BenchmarkWithoutPrefilter is the paper's brute-force pair-wise sweep
// (§VI-B, 102 hours on their testbed) over a fixed 300-domain slice —
// every candidate against every length-compatible brand, no index. This
// is the reference the index is proven against, and the workload the
// integral-image kernel and raster caches exist for.
func BenchmarkWithoutPrefilter(b *testing.B) {
	corpus := study(b).DS.IDNs
	if len(corpus) > 300 {
		corpus = corpus[:300]
	}
	brute := core.NewHomographDetector(0, core.WithBrands(brands.TopK(1000)))
	b.SetBytes(corpusBytes(corpus))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = brute.Detect(corpus)
	}
}

// benchKernelPair renders the fixed domain pair the kernel benchmarks
// compare.
func benchKernelPair() (x, y *image.Gray) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	return re.RenderWidth("facebook.com", width), re.RenderWidth("faceboôk.com", width)
}

// BenchmarkSSIMKernel times the integral-image SSIM kernel on one
// rendered domain pair (no rendering in the loop).
func BenchmarkSSIMKernel(b *testing.B) {
	x, y := benchKernelPair()
	c := ssim.New(ssim.DefaultWindow)
	b.SetBytes(int64(len(x.Pix) + len(y.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Index(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderWidthInto times the zero-alloc candidate render path in
// isolation (reused caller-owned buffer).
func BenchmarkRenderWidthInto(b *testing.B) {
	re := glyph.NewRenderer()
	width := len("facebook.com") * glyph.CellWidth
	var buf *image.Gray
	b.SetBytes(int64(width * glyph.CellHeight))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = re.RenderWidthInto(buf, "faceboôk.com", width)
	}
}

// BenchmarkPunycodeByLength shows the Bootstring cost profile over label
// lengths.
func BenchmarkPunycodeByLength(b *testing.B) {
	labels := map[string]string{
		"short-cjk":  "中国",
		"mid-cjk":    "北京交通大学",
		"long-mixed": "Hello-Another-Way-それぞれの場所",
	}
	for name, label := range labels {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := punycode.Encode(label); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
