package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idnlab/internal/proctest"
)

// TestBadFlagsFailBeforeGenerating: flags that contradict each other are
// rejected before the universe is generated and before -out is created
// (-labels-only without -labels used to do both first; -scale -3 wrote
// the default-scale zones).
func TestBadFlagsFailBeforeGenerating(t *testing.T) {
	dir := t.TempDir()
	if err := proctest.Build(dir, "idnzonegen"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-labels-only", "-scale", "20"}, "idnzonegen: -labels-only requires -labels FILE"},
		{[]string{"-scale", "-3"}, "idnzonegen: -scale must be at least 1 (1 = paper scale), got -3"},
	} {
		out := filepath.Join(dir, "zones")
		var log string
		var err error
		elapsed := time.Hour
		// A slow process start on a busy box is retried before it counts.
		for try := 0; try < 3 && elapsed > 100*time.Millisecond; try++ {
			begin := time.Now()
			log, err = proctest.Run("idnzonegen", dir+"/idnzonegen", append(tc.args, "-out", out)...)
			elapsed = time.Since(begin)
		}
		if err == nil {
			t.Errorf("idnzonegen %v succeeded:\n%s", tc.args, log)
		}
		if !strings.Contains(log, tc.want) {
			t.Errorf("idnzonegen %v printed\n%s\nwant %q", tc.args, log, tc.want)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("idnzonegen %v created -out before rejecting its flags", tc.args)
			os.RemoveAll(out)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("idnzonegen %v took %v to fail, want < 100ms", tc.args, elapsed)
		}
	}
}
