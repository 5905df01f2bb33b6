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
