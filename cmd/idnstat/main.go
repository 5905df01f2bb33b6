// Command idnstat trains, evaluates and inspects the statistical
// malicious-IDN classifier (internal/feat) — the third detector of the
// serving ensemble and the learned prefilter in front of the SSIM path.
//
// Subcommands:
//
//	idnstat train -labels labels.csv -out model.idnstat [-seed N]
//	idnstat train -seed 2018 -scale 100 -out model.idnstat   # corpus in-process
//	idnstat eval  -model model.idnstat -labels labels.csv [-min-recall 0.95] [-max-pass 0.25]
//	idnstat inspect -model model.idnstat
//
// train fits the logistic layer plus the bigram/TLD tables on the
// non-held-out split of the labeled CSV (written by `idnzonegen
// -labels`) and writes a checksummed IDNSTAT1 blob. Identical inputs
// produce bit-identical models.
//
// eval scores the held-out split under serving conditions and reports
// precision/recall/AUC, the prefilter pass rate and per-population
// recall as JSON; -min-recall/-max-pass turn the report into a gate
// (exit 1 on violation) for CI.
//
// inspect prints the model card: header fields, thresholds, weights and
// the largest-magnitude bigrams.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"idnlab/internal/cli"
	"idnlab/internal/feat"
	"idnlab/internal/zonegen"
)

func main() { cli.Main("idnstat", run) }

func run(context.Context) error {
	args := os.Args[1:]
	if len(args) == 0 {
		return fmt.Errorf("usage: idnstat <train|eval|inspect> [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "eval":
		return runEval(args[1:])
	case "inspect":
		return runInspect(args[1:])
	}
	return fmt.Errorf("unknown subcommand %q (want train, eval or inspect)", args[0])
}

// loadExamples reads a labels CSV (idnzonegen -labels) into training
// examples, or falls back to generating the corpus in-process.
func loadExamples(labelsPath string, seed uint64, scale int) ([]feat.Example, error) {
	if labelsPath == "" {
		reg := zonegen.Generate(zonegen.Config{Seed: seed, Scale: scale})
		return feat.FromLabeled(reg.Labels()), nil
	}
	f, err := os.Open(labelsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labels, err := zonegen.ReadLabels(f)
	if err != nil {
		return nil, err
	}
	return feat.FromLabeled(labels), nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("idnstat train", flag.ExitOnError)
	var (
		labels = fs.String("labels", "", "labeled CSV from idnzonegen -labels (default: generate corpus in-process)")
		out    = fs.String("out", "model.idnstat", "output model path")
		seed   = fs.Uint64("seed", 2018, "training seed (and corpus seed without -labels)")
		scale  = fs.Int("scale", 100, "corpus down-scaling divisor (without -labels)")
		epochs = fs.Int("epochs", 0, "SGD epochs (0 = default)")
	)
	fs.Parse(args)
	exs, err := loadExamples(*labels, *seed, *scale)
	if err != nil {
		return err
	}
	m, rep, err := feat.Train(exs, feat.TrainConfig{Seed: *seed, Epochs: *epochs})
	if err != nil {
		return err
	}
	if err := m.WriteFile(*out); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d bigrams)\n", *out, len(m.Bytes()), m.BigramCount())
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("idnstat eval", flag.ExitOnError)
	var (
		model     = fs.String("model", "model.idnstat", "trained model path")
		labels    = fs.String("labels", "", "labeled CSV (default: regenerate corpus from -seed/-scale)")
		seed      = fs.Uint64("seed", 2018, "corpus seed (without -labels)")
		scale     = fs.Int("scale", 100, "corpus scale (without -labels)")
		all       = fs.Bool("all", false, "evaluate on every example instead of the held-out split")
		minRecall = fs.Float64("min-recall", 0, "fail unless held-out prefilter recall is at least this")
		maxPass   = fs.Float64("max-pass", 0, "fail if the prefilter pass rate exceeds this")
	)
	fs.Parse(args)
	m, err := feat.LoadFile(*model)
	if err != nil {
		return err
	}
	exs, err := loadExamples(*labels, *seed, *scale)
	if err != nil {
		return err
	}
	if !*all {
		_, exs = feat.Split(exs)
	}
	rep := feat.Evaluate(m, exs)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *minRecall > 0 && rep.PrefilterRecall < *minRecall {
		return fmt.Errorf("gate: prefilter recall %.4f below required %.4f", rep.PrefilterRecall, *minRecall)
	}
	if *maxPass > 0 && rep.PassRate > *maxPass {
		return fmt.Errorf("gate: prefilter pass rate %.4f above allowed %.4f", rep.PassRate, *maxPass)
	}
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("idnstat inspect", flag.ExitOnError)
	var (
		model = fs.String("model", "model.idnstat", "trained model path")
		topN  = fs.Int("bigrams", 10, "largest-magnitude bigrams to print")
	)
	fs.Parse(args)
	m, err := feat.LoadFile(*model)
	if err != nil {
		return err
	}
	fmt.Printf("format:     IDNSTAT1 (%d bytes)\n", len(m.Bytes()))
	fmt.Printf("seed:       %d\n", m.Seed())
	fmt.Printf("features:   %d\n", feat.NumFeatures)
	fmt.Printf("bigrams:    %d\n", m.BigramCount())
	fmt.Printf("bias:       %+.4f\n", m.Bias())
	fmt.Printf("flag:       %+.4f (raw margin)\n", m.FlagRaw())
	fmt.Printf("prefilter:  %+.4f (raw margin)\n", m.PrefilterRaw())
	fmt.Println("weights:")
	w := m.Weights()
	for i, name := range feat.FeatureNames {
		fmt.Printf("  %-18s %+.4f\n", name, w[i])
	}
	if *topN > 0 && m.BigramCount() > 0 {
		fmt.Printf("top %d bigrams by |log-odds|:\n", *topN)
		for _, b := range m.TopBigrams(*topN) {
			fmt.Printf("  %-12q %+.4f\n", b.Pair, b.LogOdds)
		}
	}
	return nil
}
