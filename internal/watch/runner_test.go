package watch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"idnlab/internal/zonegen"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openRunner opens a fresh alert log and cursor under dir.
func openRunner(t *testing.T, eng *Engine, dir string) *Runner {
	t.Helper()
	l, err := OpenAlertLog(filepath.Join(dir, "alerts.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return &Runner{Engine: eng, Log: l, Dir: dir, CursorPath: filepath.Join(dir, "cursor.json")}
}

// requireCommittedThrough checks the runner stopped cleanly after the
// delta with serial: in-memory and persisted cursor agree on it, and the
// log holds exactly its alerts and the earlier ones — none of a later
// file.
func requireCommittedThrough(t *testing.T, r *Runner, serial uint32) {
	t.Helper()
	c := r.Cursor()
	if c.Serial != serial {
		t.Fatalf("cursor serial %d, want %d", c.Serial, serial)
	}
	if saved, err := LoadCursor(r.CursorPath); err != nil || saved != c {
		t.Fatalf("persisted cursor %+v (err %v), in memory %+v", saved, err, c)
	}
	if c.LogOffset != r.Log.Size() {
		t.Fatalf("log holds %d bytes past the cursor's %d", r.Log.Size(), c.LogOffset)
	}
	for _, a := range replayAll(t, filepath.Join(r.Dir, "alerts.log"), 0) {
		if a.Serial > serial {
			t.Fatalf("alert of serial %d logged past the cursor %d", a.Serial, serial)
		}
	}
}

// TestRunnerRejectsSerialMismatch: the runner picks files by the serial
// in their name and advances the cursor by the serial in their header.
// A file whose two disagree must stop the poll before any of its alerts
// is appended, naming both serials: a header below the name would be
// re-read on every poll, a header above it would skip the files between.
func TestRunnerRejectsSerialMismatch(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	cases := []struct {
		name string
		// rename moves one generated file so a header disagrees with
		// its name and returns the mismatched path and serials.
		rename func(t *testing.T, dir string, s []uint32) (path string, header, named uint32)
	}{
		{"header below name", func(t *testing.T, dir string, s []uint32) (string, uint32, uint32) {
			os.Remove(filepath.Join(dir, zonegen.DeltaFileName(s[2])))
			return moveDelta(t, dir, s[1], s[2]), s[1], s[2]
		}},
		{"header above name", func(t *testing.T, dir string, s []uint32) (string, uint32, uint32) {
			os.Remove(filepath.Join(dir, zonegen.DeltaFileName(s[1])))
			return moveDelta(t, dir, s[2], s[1]), s[2], s[1]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var serials []uint32
			for _, d := range writeDeltaDir(t, dir, 51, attackCfg, 3) {
				serials = append(serials, d.Serial)
			}
			path, header, named := tc.rename(t, dir, serials)
			r := openRunner(t, eng, dir)
			files, _, err := r.Poll(context.Background())
			want := fmt.Sprintf("%s: header serial %d does not match file name serial %d", path, header, named)
			if err == nil || err.Error() != want {
				t.Fatalf("Poll err = %v, want %q", err, want)
			}
			if files != 1 {
				t.Fatalf("%d files committed before the mismatch, want 1", files)
			}
			requireCommittedThrough(t, r, serials[0])

			// ProcessFile names the same problem and appends nothing.
			size := r.Log.Size()
			if _, err := r.ProcessFile(context.Background(), path); err == nil || err.Error() != want {
				t.Fatalf("ProcessFile err = %v, want %q", err, want)
			}
			if r.Log.Size() != size {
				t.Fatal("ProcessFile appended alerts of a mismatched file")
			}
		})
	}
}

// moveDelta renames the delta file of serial from to the name of serial
// to and returns the new path.
func moveDelta(t *testing.T, dir string, from, to uint32) string {
	t.Helper()
	path := filepath.Join(dir, zonegen.DeltaFileName(to))
	if err := os.Rename(filepath.Join(dir, zonegen.DeltaFileName(from)), path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunnerPollMalformedMidDirectory: with the lookahead parsing ahead
// of the commits, a bad file in the middle of the directory must still
// surface only after every earlier file is committed — cursor on the
// last good serial, log holding exactly the alerts an uninterrupted
// run logs for those files — and must leave no goroutine behind.
func TestRunnerPollMalformedMidDirectory(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	refDir, dir := t.TempDir(), t.TempDir()
	days := writeDeltaDir(t, refDir, 51, attackCfg, 4)
	writeDeltaDir(t, dir, 51, attackCfg, 4)
	ref := runPoll(t, eng, refDir, filepath.Join(refDir, "alerts.log"), filepath.Join(refDir, "cursor.json"))

	bad := filepath.Join(dir, zonegen.DeltaFileName(days[2].Serial))
	text, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(strings.Replace(string(text), " IN NS ", " IN A ", 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openRunner(t, eng, dir)
	before := runtime.NumGoroutine()
	files, alerts, err := r.Poll(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("Poll err = %v, want one naming %s", err, bad)
	}
	waitGoroutines(t, before)
	if files != 2 {
		t.Fatalf("%d files committed, want 2", files)
	}
	requireCommittedThrough(t, r, days[1].Serial)
	got := replayAll(t, filepath.Join(r.Dir, "alerts.log"), 0)
	var want []Alert
	for _, a := range ref {
		if a.Serial <= days[1].Serial {
			want = append(want, a)
		}
	}
	if alerts != len(want) || len(got) != len(want) {
		t.Fatalf("%d alerts reported, %d logged; the uninterrupted run logs %d for the first two files", alerts, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRunnerPollCancelled: cancelling the context while Poll is
// between or inside files returns ctx.Err(), leaves the cursor on a
// fully committed file and leaks neither the lookahead nor the match
// pipeline.
func TestRunnerPollCancelled(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 77, zonegen.DeltaConfig{AddsPerDay: 3000, AttackShare: 0.3, AttackTopK: 60}, 8)

	r := openRunner(t, eng, dir)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the first file's cursor is on disk.
	go func() {
		for ctx.Err() == nil {
			if _, err := os.Stat(r.CursorPath); err == nil {
				cancel()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	files, _, err := r.Poll(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Poll err = %v after %d files, want context.Canceled", err, files)
	}
	if files < 1 || files >= len(days) {
		t.Fatalf("%d of %d files committed", files, len(days))
	}
	waitGoroutines(t, before)
	requireCommittedThrough(t, r, days[files-1].Serial)
}

// TestCancelledFileStillCommits is the deterministic half of
// TestRunnerPollCancelled: a file whose processing starts under an
// already-cancelled context is matched, logged and committed whole,
// with the same alerts as an uncancelled run.
func TestCancelledFileStillCommits(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 77, zonegen.DeltaConfig{AddsPerDay: 3000, AttackShare: 0.3, AttackTopK: 60}, 1)
	path := filepath.Join(dir, zonegen.DeltaFileName(days[0].Serial))

	ref := openRunner(t, eng, t.TempDir())
	want, err := ref.ProcessFile(context.Background(), path)
	if err != nil || want == 0 {
		t.Fatalf("uncancelled run: %d alerts, err %v; want some alerts", want, err)
	}
	r := openRunner(t, eng, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := r.ProcessFile(ctx, path); err != nil || got != want {
		t.Fatalf("cancelled run: %d alerts, err %v; want %d and no error", got, err, want)
	}
	requireCommittedThrough(t, r, days[0].Serial)
}
