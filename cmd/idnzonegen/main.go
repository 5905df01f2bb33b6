// Command idnzonegen synthesizes the study's data universe and writes the
// TLD zone files to a directory, one master-format file per zone — the
// stand-in for downloading Verisign/PIR snapshots and the 53 iTLD zones
// from ICANN CZDS.
//
// Usage:
//
//	idnzonegen -out ./zones -seed 1 -scale 100
//
// With -deltas N it additionally emits N days of deterministic
// day-over-day zone deltas (adds/drops/NS changes in IXFR-style master
// syntax) as delta-<serial>.zone files — the input stream the idnwatch
// daemon tails.
//
// With -labels FILE it emits the labeled classifier ground truth as a
// deterministic CSV (population, age, positive/negative class, and the
// hashed train/eval split) — the artifact `idnstat train` and the eval
// harness share.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"idnlab/internal/cli"
	"idnlab/internal/zonegen"
)

func main() { cli.Main("idnzonegen", run) }

func run(context.Context) error {
	var (
		out         = flag.String("out", "zones", "output directory for zone files")
		seed        = flag.Uint64("seed", 1, "generation seed")
		scale       = flag.Int("scale", zonegen.DefaultScale, "down-scaling divisor (1 = paper scale)")
		deltaDays   = flag.Int("deltas", 0, "also emit this many days of zone deltas")
		adds        = flag.Int("delta-adds", 0, "registrations per delta day (0 = derived from corpus size)")
		attackShare = flag.Float64("delta-attack-share", 0, "fraction of delta adds that are homograph attacks (0 = default)")
		skipZones   = flag.Bool("deltas-only", false, "skip the full zone snapshot, emit only deltas")
		labelsPath  = flag.String("labels", "", "also write the labeled train/eval CSV for idnstat to this file")
		labelsOnly  = flag.Bool("labels-only", false, "skip the zone snapshot, emit only the -labels CSV")
	)
	flag.Parse()

	if err := cli.CheckScale(*scale); err != nil {
		return err
	}
	if *labelsOnly && *labelsPath == "" {
		return fmt.Errorf("-labels-only requires -labels FILE")
	}

	reg := zonegen.Generate(zonegen.Config{Seed: *seed, Scale: *scale})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *labelsPath != "" {
		labels := reg.Labels()
		f, err := os.Create(*labelsPath)
		if err != nil {
			return err
		}
		if err := zonegen.WriteLabels(f, labels); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		pos, eval := 0, 0
		for _, l := range labels {
			if l.Positive {
				pos++
			}
			if l.Eval {
				eval++
			}
		}
		fmt.Printf("wrote %d labeled examples (%d positive, %d held out) to %s\n",
			len(labels), pos, eval, *labelsPath)
		if *labelsOnly {
			return nil
		}
	}
	if *deltaDays > 0 {
		gen := reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: *adds, AttackShare: *attackShare})
		var records int
		for i := 0; i < *deltaDays; i++ {
			d := gen.Next()
			path := filepath.Join(*out, zonegen.DeltaFileName(d.Serial))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if _, err := d.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			for _, z := range d.Zones {
				records += len(z.Records)
			}
		}
		fmt.Printf("wrote %d delta files (%d operations, %d live domains) to %s\n",
			*deltaDays, records, gen.Live(), *out)
	}
	if *skipZones {
		return nil
	}
	zones := reg.BuildZones()
	var files, records int
	for origin, zone := range zones {
		path := filepath.Join(*out, origin+".zone")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := zone.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		files++
		records += len(zone.Records)
	}
	fmt.Printf("wrote %d zone files (%d records, %d domains) to %s\n",
		files, records, len(reg.Domains), *out)
	return nil
}
