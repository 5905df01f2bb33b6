// Command benchgate runs the micro-benchmarks that carry an absolute
// throughput floor and fails if one of them is missed. The floors pin
// what the end-to-end benchmark (BENCHMARK.json, bench/) cannot see in
// isolation; allocation contracts are not here — they are
// testing.AllocsPerRun tests in tier-1.
//
//	go run ./cmd/benchgate 1s     # `make bench-gates`; the argument is -benchtime
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"idnlab/internal/cli"
)

// gates is the one table of floors. unit "ops/s" is 1e9 / ns-per-op;
// any other unit is a custom metric the benchmark reports itself.
var gates = []struct {
	pkg, bench, unit string
	floor            float64
	why              string
}{
	{"./internal/candidx", "BenchmarkIndexLookup", "ops/s", 100_000, "index lookups/s at 10k brands"},
	{"./internal/candidx", "BenchmarkIndexBuild", "ops/s", 10, "top-1000 index builds/s, the start-up cost of every detector given no index file (runs 13-22)"},
	{"./internal/core", "BenchmarkRescoreUniverse", "rescores/s", 350_000, "bounded rescores/s over the default index's candidates for the scale-100 universe's IDNs (runs 383-499k; the whole-image kernel made 217-332k)"},
	{"./internal/watch", "BenchmarkWatchMatch1M", "ops/s", 500_000, "deltas/s through the match stage at 1M subscriptions"},
	{"./internal/watch", "BenchmarkDeltaParse", "MB/s", 80, "delta parse throughput (a string, a field slice and a failed TTL parse per line made 45-52)"},
	{"./internal/watch", "BenchmarkSubscribe1M", "subscriptions/s", 18_000_000, "start-up subscriptions/s at 1M over 1k brands (a duplicate scan per Subscribe made 1.6M)"},
	{"./internal/feat", "BenchmarkStatClassify", "ops/s", 1_000_000, "classifications/s"},
	{"./internal/vstore", "BenchmarkVstoreRecovery", "entries/s", 100_000, "warm-boot entries/s (a 1M-verdict partition boots in <= 10 s)"},
	{"./internal/vstore", "BenchmarkVstoreCompact", "records/s", 100_000, "compaction records/s: every compaction rewrites the whole durable set (runs 2.1-2.5M)"},
	{"./internal/vstore", "BenchmarkVstoreSince", "records/s", 300_000, "anti-entropy records/s paging a 32,768-record store 2,048 at a time (decoding the whole store per page made 42k; runs ~1M)"},
	{"./internal/zonegen", "BenchmarkGenerateScale20", "domains/s", 120_000, "universe domains/s at the bench corpus's size (a quadratic name census made 60-70k)"},
}

func main() { cli.Main("benchgate", run) }

func run(ctx context.Context) error {
	if len(os.Args) != 2 {
		return errors.New("usage: benchgate <benchtime>")
	}
	var names []string
	args := []string{"test", "-run=^$", "-benchtime=" + os.Args[1]}
	for _, g := range gates {
		names = append(names, g.bench)
		args = append(args, g.pkg)
	}
	args = append(args, "-bench=^("+strings.Join(names, "|")+")$")

	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return err
	}
	measured, err := parse(io.TeeReader(out, os.Stdout))
	if err != nil {
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go test: %w", err)
	}

	failed := false
	for _, g := range gates {
		got, ok := measured[g.bench][g.unit]
		switch {
		case !ok:
			fmt.Printf("benchgate: FAIL %s: no %s in this run\n", g.bench, g.unit)
			failed = true
		case got < g.floor:
			fmt.Printf("benchgate: FAIL %s: %.0f %s, floor %.0f (%s)\n", g.bench, got, g.unit, g.floor, g.why)
			failed = true
		default:
			fmt.Printf("benchgate: ok   %s: %.0f %s, floor %.0f (%s)\n", g.bench, got, g.unit, g.floor, g.why)
		}
	}
	if failed {
		return errors.New("a floor was missed")
	}
	return nil
}

// parse reads `go test -bench` output into benchmark → unit → value,
// adding the derived "ops/s" to every line with an ns/op.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// The name carries a -GOMAXPROCS suffix on multi-proc hosts.
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				m[f[i+1]] = v
			}
		}
		if ns := m["ns/op"]; ns > 0 {
			m["ops/s"] = 1e9 / ns
		}
		out[name] = m
	}
	return out, sc.Err()
}
