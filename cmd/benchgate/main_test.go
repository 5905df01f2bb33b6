package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParse reads `go test -bench` output as the gates see it: the
// -GOMAXPROCS suffix is stripped from a name, every "value unit" pair
// is kept, ops/s is derived from ns/op, and lines that are not results
// are skipped.
func TestParse(t *testing.T) {
	out := `goos: linux
BenchmarkIndexLookup-8   	 1000000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkVstoreSince  	      10	 100000000 ns/op	    350000 records/s
BenchmarkNoValues
PASS
ok  	idnlab/internal/candidx	1.234s
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"BenchmarkIndexLookup": {"ns/op": 2000, "B/op": 0, "allocs/op": 0, "ops/s": 500_000},
		"BenchmarkVstoreSince": {"ns/op": 1e8, "records/s": 350_000, "ops/s": 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parse = %v, want %v", got, want)
	}
}

// TestCheck compares measured values with their floors: a unit missing
// from the run and a value below its floor fail, a value exactly at its
// floor passes, and every line names its benchmark.
func TestCheck(t *testing.T) {
	table := []gate{
		{"./a", "BenchmarkA", "ops/s", 100, "a"},
		{"./b", "BenchmarkB", "MB/s", 200, "b"},
	}
	for _, c := range []struct {
		name     string
		measured map[string]map[string]float64
		ok       bool
		out      string
	}{
		{"missing unit", map[string]map[string]float64{
			"BenchmarkA": {"ops/s": 150}, "BenchmarkB": {"ns/op": 5},
		}, false, "benchgate: ok   BenchmarkA: 150 ops/s, floor 100 (a)\n" +
			"benchgate: FAIL BenchmarkB: no MB/s in this run\n"},
		{"below floor", map[string]map[string]float64{
			"BenchmarkA": {"ops/s": 99}, "BenchmarkB": {"MB/s": 250},
		}, false, "benchgate: FAIL BenchmarkA: 99 ops/s, floor 100 (a)\n" +
			"benchgate: ok   BenchmarkB: 250 MB/s, floor 200 (b)\n"},
		{"at floor", map[string]map[string]float64{
			"BenchmarkA": {"ops/s": 100}, "BenchmarkB": {"MB/s": 200},
		}, true, "benchgate: ok   BenchmarkA: 100 ops/s, floor 100 (a)\n" +
			"benchgate: ok   BenchmarkB: 200 MB/s, floor 200 (b)\n"},
		{"all pass", map[string]map[string]float64{
			"BenchmarkA": {"ops/s": 1e6}, "BenchmarkB": {"MB/s": 1e3},
		}, true, "benchgate: ok   BenchmarkA: 1000000 ops/s, floor 100 (a)\n" +
			"benchgate: ok   BenchmarkB: 1000 MB/s, floor 200 (b)\n"},
	} {
		var b strings.Builder
		if ok := check(&b, c.measured, table); ok != c.ok || b.String() != c.out {
			t.Errorf("%s: check = %v, printed\n%s\nwant %v,\n%s", c.name, ok, b.String(), c.ok, c.out)
		}
	}
}
