// Command idnscan scans zone files for internationalized domain names —
// the paper's discovery step ("we searched substring xn-- in TLDs"). It
// reads master-format zone files (as written by idnzonegen, or real TLD
// snapshots) and prints per-zone SLD/IDN counts and their totals.
//
// Zones are ingested through the streaming scanner (records are never
// fully resident) and fanned across a context-aware worker pipeline
// GOMAXPROCS wide, so many zone files scan in parallel while the output
// order stays deterministic. Ctrl-C cancels cleanly mid-scan.
//
// Usage:
//
//	idnscan zones/com.zone zones/net.zone ...
//	idnscan -dir zones
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"idnlab/internal/cli"
	"idnlab/internal/pipeline"
	"idnlab/internal/zonefile"
)

func main() { cli.Main("idnscan", run) }

func run(ctx context.Context) error {
	dir := flag.String("dir", "", "scan every *.zone file in this directory")
	flag.Parse()

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
	// zonefile.ScanStream and writes its counts at the file's index, so
	// the output stays in sorted-path order no matter which zone finishes
	// first. Batch is 1 because each item is a whole zone file: a worker
	// claims one zone at a time, which keeps all workers busy on corpora
	// with a few large zones.
	stats := make([]zonefile.ScanStats, len(paths))
	eng := pipeline.New(pipeline.Config{Stage: "zonescan", Batch: 1},
		func() struct{} { return struct{}{} })
	err := eng.Run(ctx, len(paths), func(_ struct{}, i int) error {
		f, err := os.Open(paths[i])
		if err != nil {
			return err
		}
		defer f.Close()
		if stats[i], err = zonefile.ScanStream(ctx, f, nil); err != nil {
			return fmt.Errorf("%s: %w", paths[i], err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var totalSLD, totalIDN int
	for _, st := range stats {
		totalSLD += st.SLDCount
		totalIDN += st.IDNCount
		fmt.Printf("%-24s %8d SLDs %8d IDNs\n", st.Origin, st.SLDCount, st.IDNCount)
	}
	fmt.Printf("%-24s %8d SLDs %8d IDNs\n", "TOTAL", totalSLD, totalIDN)
	return nil
}
