// Command idndetect checks domains for homographic and Type-1 semantic
// abuse against the top-1000 brand list — the paper's two detectors as a
// standalone tool. Domains are read from arguments or stdin (one per
// line), in either Unicode or Punycode form. The homograph detector
// probes the candidate index for the -brands catalog, compiled once at
// start (~50 ms for the top 1000) and byte-identical to the file
// `idnindex build` writes.
//
// Classification fans across a worker pipeline with one detector set per
// worker (the homograph renderer is not safe for concurrent use); the
// order-preserving fan-in keeps output in input order, so results are
// byte-identical to a sequential run. Ctrl-C cancels cleanly.
//
// A name is normalized once (core.Normalize, the same door idnserve's
// requests come through) and the three detectors run on that form, so a
// name this tool calls INVALID is one the service rejects, and the
// HOMOGRAPH and SEMANTIC lines are the service's verdict fields.
//
// Usage:
//
//	idndetect xn--pple-43d.com apple邮箱.com example.com
//	cat suspicious.txt | idndetect -workers 8 -metrics
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"idnlab/internal/cli"
	"idnlab/internal/core"
	"idnlab/internal/pipeline"
)

func main() { cli.Main("idndetect", run) }

// detectors is the per-worker state: one instance of each detector.
type detectors struct {
	homo  *core.HomographDetector
	sem   *core.SemanticDetector
	type2 *core.Type2Detector
}

// verdict is one classified domain, already formatted for output.
type verdict struct {
	line    string
	flagged bool
}

func run(ctx context.Context) error {
	var (
		topK  = flag.Int("brands", 1000, "number of top brands to defend")
		quiet = flag.Bool("q", false, "print only matching domains")
	)
	workers, metrics := cli.PipelineFlags("detection fan-out")
	flag.Parse()

	domains := flag.Args()
	if len(domains) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				domains = append(domains, line)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	if len(domains) == 0 {
		return fmt.Errorf("no domains given (pass arguments or pipe to stdin)")
	}

	eng := pipeline.New(
		pipeline.Config{Stage: "detect", Workers: *workers},
		func() detectors {
			return detectors{
				homo:  core.NewHomographDetector(*topK),
				sem:   core.NewSemanticDetector(*topK),
				type2: core.NewType2Detector(nil),
			}
		},
		func(d detectors, domain string) (verdict, bool, error) {
			return classify(d, domain, *quiet)
		})

	flagged := 0
	err := eng.Stream(ctx, pipeline.FromSlice(domains), func(v verdict) error {
		if v.flagged {
			flagged++
		}
		fmt.Println(v.line)
		return nil
	})
	if *metrics {
		fmt.Fprintln(os.Stderr, eng.Metrics())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d of %d domains flagged\n", flagged, len(domains))
	return nil
}

// classify normalizes one domain and runs the detector cascade on the
// normalized form. ok=false drops the domain from the output (clean and
// invalid domains under -q).
func classify(d detectors, domain string, quiet bool) (verdict, bool, error) {
	n, err := core.Normalize(domain)
	if err != nil {
		return verdict{line: fmt.Sprintf("INVALID   %s (%v)", domain, err)}, !quiet, nil
	}
	if m, ok := d.homo.DetectNormalized(n); ok {
		return verdict{line: fmt.Sprintf("HOMOGRAPH %s", m), flagged: true}, true, nil
	}
	if m, ok := d.sem.DetectNormalized(n); ok {
		return verdict{line: fmt.Sprintf("SEMANTIC  %s", m), flagged: true}, true, nil
	}
	if m, ok := d.type2.DetectNormalized(n); ok {
		return verdict{line: fmt.Sprintf("TYPE2     %s", m), flagged: true}, true, nil
	}
	return verdict{line: fmt.Sprintf("clean     %s (%s)", domain, n.Unicode)}, !quiet, nil
}
