// Command idnscan scans zone files for internationalized domain names —
// the paper's discovery step ("we searched substring xn-- in TLDs"). It
// reads master-format zone files (as written by idnzonegen, or real TLD
// snapshots) and prints per-zone SLD/IDN counts plus the decoded IDNs.
//
// Zones are ingested through the streaming scanner (records are never
// fully resident) and fanned across a context-aware worker pipeline, so
// many zone files scan in parallel while the output order stays
// deterministic. Ctrl-C cancels cleanly mid-scan.
//
// Usage:
//
//	idnscan [-v] [-workers N] [-metrics] zones/com.zone zones/net.zone ...
//	idnscan -dir zones -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"idnlab/internal/cli"
	"idnlab/internal/idna"
	"idnlab/internal/pipeline"
	"idnlab/internal/zonefile"
)

func main() { cli.Main("idnscan", run) }

func run(ctx context.Context) error {
	var (
		dir     = flag.String("dir", "", "scan every *.zone file in this directory")
		verbose = flag.Bool("v", false, "print each discovered IDN with its Unicode form")
	)
	workers, metrics := cli.PipelineFlags("zone files scanned concurrently")
	prof := cli.ProfileFlags()
	flag.Parse()

	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	paths := flag.Args()
	if *dir != "" {
		matches, err := filepath.Glob(filepath.Join(*dir, "*.zone"))
		if err != nil {
			return err
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("no zone files given (pass paths or -dir)")
	}
	sort.Strings(paths)

	// One work item per zone file; each worker streams its file through
	// zonefile.ScanStream. The order-preserving fan-in keeps the output
	// in sorted-path order no matter which zone finishes first. Batch is
	// 1 because each item is a whole zone file — heavy enough that the
	// channel handoff is noise, and fine-grained dispatch keeps all
	// workers busy on corpora with a few large zones.
	eng := pipeline.New(
		pipeline.Config{Stage: "zonescan", Workers: *workers, Batch: 1},
		func() struct{} { return struct{}{} },
		func(_ struct{}, path string) (zonefile.ScanStats, bool, error) {
			f, err := os.Open(path)
			if err != nil {
				return zonefile.ScanStats{}, false, err
			}
			defer f.Close()
			st, err := zonefile.ScanStream(ctx, f, nil)
			if err != nil {
				return zonefile.ScanStats{}, false, fmt.Errorf("%s: %w", path, err)
			}
			return st, true, nil
		})

	var totalSLD, totalIDN int
	err := eng.Stream(ctx, pipeline.FromSlice(paths), func(st zonefile.ScanStats) error {
		totalSLD += st.SLDCount
		totalIDN += len(st.IDNs)
		fmt.Printf("%-24s %8d SLDs %8d IDNs\n", st.Origin, st.SLDCount, len(st.IDNs))
		if *verbose {
			for _, d := range st.IDNs {
				uni, err := idna.ToUnicode(d)
				if err != nil {
					uni = "(decode error: " + err.Error() + ")"
				}
				fmt.Printf("  %-40s %s\n", d, uni)
			}
		}
		return nil
	})
	if *metrics {
		fmt.Fprintln(os.Stderr, eng.Metrics())
	}
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %8d SLDs %8d IDNs\n", "TOTAL", totalSLD, totalIDN)
	return nil
}
