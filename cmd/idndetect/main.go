// Command idndetect checks domains for homographic, Type-1 and Type-2
// semantic abuse against the top-1000 brand list — the paper's
// detectors as a standalone tool. Domains are read from arguments or
// stdin (one per line), in either Unicode or Punycode form.
//
// A name is normalized once (core.Normalize) and classified by a
// core.Classifier built as idnserve builds its own, so a name this tool
// calls INVALID is one the service rejects, and the HOMOGRAPH and
// SEMANTIC lines are the service's verdict fields. The Type-2
// dictionary, which the service does not consult, runs on the same
// normalized form. The classifier probes the candidate index for the
// top-1000 catalog, compiled once at start (~50 ms) and byte-identical
// to the file `idnindex build` writes.
//
// Classification fans across a worker pipeline GOMAXPROCS wide, with
// one classifier clone per worker (the homograph renderer is not safe
// for concurrent use); each domain's line is written at its input index
// and printed once the pass is done, so output is byte-identical to a
// sequential run. -q prints only the flagged domains. Ctrl-C cancels
// cleanly.
//
// Usage:
//
//	idndetect xn--pple-43d.com apple邮箱.com example.com
//	cat suspicious.txt | idndetect -q
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

// detectors is the per-worker state: a classifier clone and the shared,
// read-only Type-2 dictionary.
type detectors struct {
	cls   *core.Classifier
	type2 *core.Type2Detector
}

// verdict is one classified domain, already formatted for output.
type verdict struct {
	line    string
	flagged bool
}

func run(ctx context.Context) error {
	quiet := flag.Bool("q", false, "print only matching domains")
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

	cls, type2 := core.NewClassifier(core.DetectorConfig{TopK: 1000}), core.NewType2Detector(nil)
	eng := pipeline.New(pipeline.Config{Stage: "detect"},
		func() detectors { return detectors{cls: cls.Clone(), type2: type2} })
	verdicts := make([]verdict, len(domains))
	if err := eng.Run(ctx, len(domains), func(d detectors, i int) error {
		verdicts[i] = classify(d, domains[i])
		return nil
	}); err != nil {
		return err
	}
	flagged := 0
	for _, v := range verdicts {
		if v.flagged {
			flagged++
		}
		if v.flagged || !*quiet {
			fmt.Println(v.line)
		}
	}
	fmt.Fprintf(os.Stderr, "%d of %d domains flagged\n", flagged, len(domains))
	return nil
}

// classify normalizes one domain, classifies the normalized form and
// formats the first of its homograph, semantic and Type-2 matches.
func classify(d detectors, domain string) verdict {
	n, err := core.Normalize(domain)
	if err != nil {
		return verdict{line: fmt.Sprintf("INVALID   %s (%v)", domain, err)}
	}
	v := d.cls.Verdict(n)
	if m := v.Homograph; m != nil {
		return verdict{line: fmt.Sprintf("HOMOGRAPH %s", m), flagged: true}
	}
	if m := v.Semantic; m != nil {
		return verdict{line: fmt.Sprintf("SEMANTIC  %s", m), flagged: true}
	}
	if m, ok := d.type2.DetectNormalized(n); ok {
		return verdict{line: fmt.Sprintf("TYPE2     %s", m), flagged: true}
	}
	return verdict{line: fmt.Sprintf("clean     %s (%s)", domain, n.Unicode)}
}
