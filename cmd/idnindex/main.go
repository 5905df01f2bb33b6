// Command idnindex builds, inspects and verifies precomputed homograph
// candidate indexes (package candidx). The index is compiled offline from
// a brand catalog and loaded by idnserve/idngateway at startup; this tool
// is the offline half of that pipeline.
//
// Usage:
//
//	idnindex build -top 1000 -out brands.cidx
//	idnindex inspect brands.cidx
//	idnindex verify brands.cidx [-sample 200] [-seed 1]
//
// build compiles the top-k brand catalog into a serialized index, for
// the one detection threshold (candidx.SSIMThreshold). A detector given
// no index file compiles the same bytes in-process at start-up.
// inspect prints the header, section sizes and fold classes of an index
// file. verify proves an index file is trustworthy twice over: it
// rebuilds the index from the embedded catalog and byte-compares the
// result (the build is deterministic, so any divergence means corruption
// or a version skew), then replays a seeded sample of adversarial labels
// through both the index-backed detector and the brute-force SSIM sweep
// and fails on any verdict difference.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/cli"
	"idnlab/internal/core"
	"idnlab/internal/simchar"
	"idnlab/internal/simrand"
)

func main() { cli.Main("idnindex", run) }

func run(context.Context) error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: idnindex build|inspect|verify [flags]")
	}
	switch os.Args[1] {
	case "build":
		return runBuild(os.Args[2:])
	case "inspect":
		return runInspect(os.Args[2:])
	case "verify":
		return runVerify(os.Args[2:])
	default:
		return fmt.Errorf("unknown subcommand %q (want build, inspect or verify)", os.Args[1])
	}
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	top := fs.Int("top", 1000, "brand catalog depth (top-k by rank)")
	out := fs.String("out", "brands.cidx", "output index file")
	fs.Parse(args)

	ix, err := candidx.Build(brands.TopK(*top), candidx.BuildOptions{})
	if err != nil {
		return err
	}
	if err := ix.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("idnindex: built %s: %d brands, %d keys, %d hard, %d bytes\n",
		*out, len(ix.Brands()), ix.KeyCount(), len(ix.Hard()), len(ix.Bytes()))
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: idnindex inspect <file>")
	}
	ix, err := candidx.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("file:        %s (%d bytes)\n", fs.Arg(0), len(ix.Bytes()))
	fmt.Printf("format:      %s\n", ix.Bytes()[:8])
	fmt.Printf("threshold:   %g\n", candidx.SSIMThreshold) // Load refuses any other
	fmt.Printf("fingerprint: %016x\n", ix.Fingerprint())
	fmt.Printf("brands:      %d\n", len(ix.Brands()))
	fmt.Printf("keys:        %d\n", ix.KeyCount())
	fmt.Printf("hard:        %d\n", len(ix.Hard()))
	fmt.Printf("fold classes (beyond per-base folding):\n")
	for _, g := range ix.FoldClasses() {
		fmt.Printf("  {%s}\n", g)
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	sample := fs.Int("sample", 200, "adversarial labels replayed through index and sweep")
	seed := fs.Uint64("seed", 1, "sample generator seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: idnindex verify [flags] <file>")
	}
	ix, err := candidx.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	// 1. Deterministic rebuild: the same catalog must reproduce the file
	// byte for byte.
	rebuilt, err := candidx.Build(ix.Brands(), candidx.BuildOptions{})
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if string(rebuilt.Bytes()) != string(ix.Bytes()) {
		return fmt.Errorf("rebuild differs from file (%d vs %d bytes): corrupt index or builder version skew",
			len(rebuilt.Bytes()), len(ix.Bytes()))
	}
	fmt.Printf("idnindex: rebuild identical (%d bytes)\n", len(ix.Bytes()))

	// 2. Sampled sweep equivalence: the index-backed detector must agree
	// with the brute-force SSIM sweep on every sampled verdict.
	indexed := core.NewHomographDetector(0, core.WithIndex(ix))
	sweep := core.NewHomographDetector(0, core.WithBrands(ix.Brands()))
	tab := simchar.Default()
	src := simrand.New(*seed)
	list := ix.Brands()
	checked := 0
	for i := 0; i < *sample; i++ {
		label := mutate(src, tab, list[src.Intn(len(list))].Label())
		n, err := core.Normalize(label + ".com")
		if err != nil {
			continue
		}
		got, gotOK := indexed.DetectNormalized(n)
		want, wantOK := sweep.DetectNormalized(n)
		if gotOK != wantOK || got != want {
			return fmt.Errorf("verdict divergence on %q: index=(%v,%v) sweep=(%v,%v)",
				label, got, gotOK, want, wantOK)
		}
		checked++
	}
	fmt.Printf("idnindex: %d sampled verdicts identical to the SSIM sweep\n", checked)
	return nil
}

// mutate derives one adversarial probe label from a brand label: a
// possible length edit plus one or two confusable substitutions.
func mutate(src *simrand.Source, tab *simchar.Table, label string) string {
	runes := []rune(label)
	if len(runes) == 0 {
		return label
	}
	switch src.Intn(5) {
	case 0:
		runes = append(runes, 'ö')
	case 1:
		if len(runes) > 2 {
			runes = runes[:len(runes)-1]
		}
	}
	subs := 1 + src.Intn(2)
	for s := 0; s < subs; s++ {
		pos := src.Intn(len(runes))
		if runes[pos] > 0x7F {
			continue
		}
		if sims := tab.Similar(byte(runes[pos])); len(sims) > 0 {
			runes[pos] = sims[src.Intn(len(sims))].Rune
		}
	}
	return string(runes)
}
