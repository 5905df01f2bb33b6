package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"idnlab/internal/zonegen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden pins the byte-exact full report for a small fixed
// universe. Any change to generation, detection or rendering shows up as
// a diff here; regenerate deliberately with `go test -run Golden -update`.
func TestReportGolden(t *testing.T) {
	reg := zonegen.Generate(zonegen.Config{Seed: 7, Scale: 2000})
	ds, err := Assemble(reg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := NewStudy(ds).RunContext(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "report_seed7_scale2000.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	// Point at the first differing line for a readable failure.
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("report diverges from golden at line %d:\n got: %q\nwant: %q",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report length changed: %d vs %d lines", len(gotLines), len(wantLines))
}

// reportDS is the (2018, 100) dataset both report digests hash, the
// corpus of `idnreport -seed 2018 -scale 100`, generated once per test
// binary.
var reportDS = sync.OnceValues(func() (*Dataset, error) { return NewDefaultDataset(2018, 100) })

// TestReportJSONDigest pins the machine-readable study at the default
// scale — a universe 20 times the golden report's, large enough that the
// generator's name collisions, every Build* store and the corpus
// classify pass shape the bytes. Recorded on the tree before Assemble and Results went
// concurrent (commit 93c990a); an optimisation never regenerates it.
func TestReportJSONDigest(t *testing.T) {
	ds, err := reportDS()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := NewStudy(ds).WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	const want = "7ce01d7eae598edead6eff513e3e39ced8940e35268eee97a885458474eb1a05"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("idnreport -seed 2018 -scale 100 -json digest %s, want %s", got, want)
	}
}

// TestReportTextDigest pins the text report over the same dataset, the
// bytes of `idnreport -seed 2018 -scale 100` (identical at -workers 1, 2
// and 3). Recorded at commit d5a1f5e; an optimisation never regenerates
// it.
func TestReportTextDigest(t *testing.T) {
	ds, err := reportDS()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := NewStudy(ds).RunContext(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	const want = "aa4b37d2362c5a80d7a3739e5a256dc2b354c4536d1fb97dc2343da7f8619833"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("idnreport -seed 2018 -scale 100 digest %s, want %s", got, want)
	}
}
