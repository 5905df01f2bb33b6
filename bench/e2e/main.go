// Command e2e is the repository's end-to-end benchmark: it builds the
// real cmd/ binaries, boots them as child processes, drives them with a
// fixed, seed-derived amount of work, checks every answer against an
// in-process oracle and prints every metric by name with its unit.
// bench/README.md describes the workloads, the metrics and the rules
// that make two runs of the same code agree.
//
//	go run -C bench ./e2e -seed 1                       # every workload
//	go run -C bench ./e2e -seed 1 -workload watch_ingest
//	go run -C bench ./e2e -seed 1 -workload serve_cold_batch -trace 1
//	go run -C bench ./e2e -aa 3                         # A/A noise gate
//	go run -C bench ./e2e -smoke                        # harness self-check
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one measured number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	E2E       map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer"`
	// Extra holds numbers outside the contract's lists: absolute values
	// behind the budget shares, set-up parts, sample counts.
	Extra map[string]metric `json:"extra"`
}

func newResult(workload string, seed uint64) *runResult {
	return &runResult{Workload: workload, Seed: seed,
		E2E: map[string]metric{}, Layer: map[string]metric{}, Extra: map[string]metric{}}
}

// env is what every workload needs from its surroundings.
type env struct {
	ctx   context.Context
	root  string // repository root
	bin   string // directory of the built cmd/ binaries
	tmp   string // parent of the per-workload temp dirs
	out   string // bench/out
	seed  uint64
	size  sizes
	trace bool
	quiet bool // smoke and A/A runs print no per-metric lines
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload (default: all, one after another)")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same operations")
		seconds  = flag.Int("seconds", 10, "nominal length of the measured phase; the work is fixed at seconds × the reference rate")
		trace    = flag.Int("trace", 0, "1 adds the traced in-process replay and the layer probes, and reports the per-layer metrics")
		aa       = flag.Int("aa", 0, "A/A self-check: two alternating sets of this many runs of the same build")
		smoke    = flag.Bool("smoke", false, "every workload at 1/50 size, to check the harness itself; prints no metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		return errors.New("-seconds must be between 1 and 60")
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
		}
		names = []string{*workload}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		ctx:   ctx,
		root:  root,
		bin:   filepath.Join(build, "bin"),
		tmp:   filepath.Join(build, "tmp"),
		out:   filepath.Join(root, "bench", "out"),
		seed:  *seed,
		size:  sizesFor(*seconds, *smoke),
		trace: *trace != 0,
		quiet: *smoke,
	}
	if err := buildBinaries(e); err != nil {
		return err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}

	if *aa > 0 {
		return runAA(e, names, *aa)
	}
	var results []*runResult
	for _, name := range names {
		res, err := runWorkload(e, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, res)
		if !e.quiet {
			printResult(res)
		}
	}
	if *smoke {
		for _, r := range results {
			if r.Failed > 0 {
				return fmt.Errorf("smoke: %s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
			}
		}
		fmt.Println("smoke ok")
		return nil
	}
	if err := writeJSON(filepath.Join(e.out, "e2e.json"), results); err != nil {
		return err
	}
	// The contract's result: one JSON object per workload, the last line
	// of standard output being the last workload's.
	failed := 0
	for _, r := range results {
		line, err := contractLine(r, e.trace)
		if err != nil {
			return err
		}
		fmt.Println(line)
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runWorkload runs one workload from a clean slate.
func runWorkload(e *env, name string) (*runResult, error) {
	switch name {
	case wlHot, wlCold:
		return runServe(e, name)
	case wlCluster:
		return runCluster(e)
	case wlWatch:
		return runWatch(e)
	case wlStudy:
		return runStudy(e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// findRoot walks up from the working directory to the idnlab module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module idnlab\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the idnlab repository (no go.mod with `module idnlab` above the working directory)")
		}
		dir = parent
	}
}

// buildBinaries compiles the cmd/ programs the workloads boot. The go
// tool's cache makes this a no-op when nothing changed; it is never part
// of setup_s.
func buildBinaries(e *env) error {
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, c := range []string{"idnserve", "idngateway", "idnwatch", "idnreport", "idnindex", "idnstat"} {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(e.ctx, "go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// printResult prints every metric as "<workload>/<metric> <value> <unit>".
func printResult(r *runResult) {
	for _, set := range []map[string]metric{r.E2E, r.Layer, r.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s/%s %s %s\n", r.Workload, n, strconv.FormatFloat(set[n].Value, 'f', -1, 64), set[n].Unit)
		}
	}
	fmt.Printf("%s/operations attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("%s/failure %s\n", r.Workload, f)
	}
}

// contractLine is the result object the benchmark contract asks for:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func contractLine(r *runResult, traced bool) (string, error) {
	specs, measured := endToEnd, r.E2E
	if traced {
		specs, measured = perLayer, r.Layer
	}
	metrics, err := contractMetrics(specs, measured)
	if err != nil {
		return "", fmt.Errorf("%s: %w", r.Workload, err)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
