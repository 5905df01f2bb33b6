package main

import (
	"strings"
	"testing"
	"time"

	"idnlab/internal/proctest"
)

// TestBadFlagsFailBeforeGenerating: an invocation that cannot succeed
// says so at once — it used to generate and assemble the whole universe
// first (seconds at -scale 20, a minute at -scale 5), and -scale -3 ran
// silently at the default scale.
func TestBadFlagsFailBeforeGenerating(t *testing.T) {
	dir := t.TempDir()
	if err := proctest.Build(dir, "idnreport"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-only", "bogus", "-scale", "20"}, `idnreport: unknown experiment "bogus" (available: findings, table1,`},
		{[]string{"-scale", "-3"}, "idnreport: -scale must be at least 1 (1 = paper scale), got -3"},
		{[]string{"-scale", "0", "-json"}, "idnreport: -scale must be at least 1 (1 = paper scale), got 0"},
		{[]string{"-json", "-only", "table2"}, "idnreport: -only selects a text section; it cannot be combined with -json"},
		{[]string{"-timings", "-json"}, "idnreport: -timings times the full text report; it cannot be combined with -json or -only"},
		{[]string{"-timings", "-only", "table2"}, "idnreport: -timings times the full text report; it cannot be combined with -json or -only"},
	} {
		// The 100 ms are the box's worst case for starting a process, not
		// the command's work; a slow start is retried before it counts.
		var out string
		var err error
		elapsed := time.Hour
		for try := 0; try < 3 && elapsed > 100*time.Millisecond; try++ {
			begin := time.Now()
			out, err = proctest.Run("idnreport", dir+"/idnreport", tc.args...)
			elapsed = time.Since(begin)
		}
		if err == nil {
			t.Errorf("idnreport %v succeeded:\n%s", tc.args, out)
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("idnreport %v printed\n%s\nwant %q", tc.args, out, tc.want)
		}
		if strings.Contains(out, "generating universe") {
			t.Errorf("idnreport %v generated the universe before rejecting its flags:\n%s", tc.args, out)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("idnreport %v took %v to fail, want < 100ms", tc.args, elapsed)
		}
	}
}

// TestMetricsNameEveryPass: -metrics prints a line for every pass the
// run made, as wide as -workers says, also when -only renders a single
// section — a lone Table II builds the corpus index and used to print
// nothing, its pass running GOMAXPROCS wide.
func TestMetricsNameEveryPass(t *testing.T) {
	dir := t.TempDir()
	if err := proctest.Build(dir, "idnreport"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-only", "table2", "-workers", "1", "-metrics", "-scale", "1000"}, "stage=index workers=1 "},
		{[]string{"-only", "table13", "-workers", "1", "-metrics", "-scale", "1000"}, "stage=classify workers=1 "},
	} {
		out, err := proctest.Run("idnreport", dir+"/idnreport", tc.args...)
		if err != nil {
			t.Fatalf("idnreport %v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("idnreport %v printed\n%s\nwant a line with %q", tc.args, out, tc.want)
		}
	}
}
