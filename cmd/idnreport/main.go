// Command idnreport runs the complete measurement study and prints every
// table and figure of the paper: it generates the calibrated universe,
// scans the zones, correlates WHOIS / passive DNS / blacklists /
// certificates / web content, runs both abuse detectors and the browser
// survey, and renders the results.
//
// Usage:
//
//	idnreport -seed 1 -scale 100           # ≈14.7K IDNs, under a second
//	idnreport -scale 10                    # ≈147K IDNs, a few seconds
//	idnreport -only table13                # a single experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"idnlab/internal/cli"
	"idnlab/internal/core"
	"idnlab/internal/zonegen"
)

func main() { cli.Main("idnreport", run) }

// run renders the report; cancelling ctx (Ctrl-C) stops it cleanly: the
// section scheduler and any in-flight corpus scan drain their
// goroutines before it returns.
func run(ctx context.Context) error {
	var (
		seed     = flag.Uint64("seed", 1, "generation seed")
		scale    = flag.Int("scale", zonegen.DefaultScale, "down-scaling divisor (1 = paper scale)")
		only     = flag.String("only", "", "run a single experiment, e.g. table2, figure7")
		jsonMode = flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
		timings  = flag.Bool("timings", false, "print per-section render timings to stderr")
	)
	workers, metrics := cli.PipelineFlags("corpus-scan fan-out")
	prof := cli.ProfileFlags()
	flag.Parse()

	// Whatever the flags get wrong is said before the universe is
	// generated, not after.
	if err := cli.CheckScale(*scale); err != nil {
		return err
	}
	if *only != "" {
		if _, err := new(core.Study).Section(*only); err != nil {
			return err
		}
	}

	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	fmt.Fprintf(os.Stderr, "generating universe (seed %d, scale 1/%d)...\n", *seed, *scale)
	ds, err := core.NewDefaultDataset(*seed, *scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "assembled %d IDNs, %d non-IDNs\n", len(ds.IDNs), len(ds.NonIDNs))
	st := core.NewStudy(ds)
	st.ScanWorkers = *workers
	defer func() {
		if *metrics {
			for _, m := range st.ScanMetrics() {
				fmt.Fprintln(os.Stderr, m)
			}
		}
		if *timings {
			for _, t := range st.SectionTimings() {
				fmt.Fprintf(os.Stderr, "section %-12s %s\n", t.Name, t.Duration)
			}
		}
	}()

	if *jsonMode {
		return st.WriteJSON(os.Stdout)
	}
	if *only == "" {
		return st.RunContext(ctx, os.Stdout)
	}
	section, err := st.Section(*only)
	if err != nil {
		return err
	}
	return section(os.Stdout)
}
