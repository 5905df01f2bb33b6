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

// gate is one throughput floor. unit "ops/s" is 1e9 / ns-per-op; any
// other unit is a custom metric the benchmark reports itself.
type gate struct {
	pkg, bench, unit string
	floor            float64
	why              string
}

// gates is the one table of floors.
var gates = []gate{
	{"./internal/candidx", "BenchmarkIndexLookup", "ops/s", 100_000, "index lookups/s at 10k brands"},
	{"./internal/candidx", "BenchmarkIndexBuild", "ops/s", 10, "top-1000 index builds/s, the start-up cost of every detector given no index file (runs 13-22)"},
	{"./internal/core", "BenchmarkRescoreUniverse", "rescores/s", 350_000, "bounded rescores/s over the default index's candidates for the scale-100 universe's IDNs (runs 383-499k; the whole-image kernel made 217-332k)"},
	{"./internal/watch", "BenchmarkWatchMatch1M", "ops/s", 500_000, "deltas/s through the match stage at 1M subscriptions"},
	{"./internal/watch", "BenchmarkDeltaParse", "MB/s", 200, "parse throughput over a watch_ingest-shaped delta (runs 392-596; case folding per field and an owner-map probe per NS line made 178-250)"},
	{"./internal/watch", "BenchmarkSubscribe1M", "subscriptions/s", 20_000_000, "start-up subscriptions/s at 1M over 1k brands, Subscribe an unlocked append (runs 43-70M; a stripe lock per Subscribe made 17-25M, a duplicate scan 1.6M)"},
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

	if !check(os.Stdout, measured, gates) {
		return errors.New("a floor was missed")
	}
	return nil
}

// check prints one line per gate against the measured benchmark → unit →
// value map and reports whether every floor was met. A value exactly at
// its floor meets it.
func check(w io.Writer, measured map[string]map[string]float64, gates []gate) bool {
	ok := true
	for _, g := range gates {
		got, found := measured[g.bench][g.unit]
		switch {
		case !found:
			fmt.Fprintf(w, "benchgate: FAIL %s: no %s in this run\n", g.bench, g.unit)
			ok = false
		case got < g.floor:
			fmt.Fprintf(w, "benchgate: FAIL %s: %.0f %s, floor %.0f (%s)\n", g.bench, got, g.unit, g.floor, g.why)
			ok = false
		default:
			fmt.Fprintf(w, "benchgate: ok   %s: %.0f %s, floor %.0f (%s)\n", g.bench, got, g.unit, g.floor, g.why)
		}
	}
	return ok
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
