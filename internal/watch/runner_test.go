package watch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idnlab/internal/framelog"
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

// newRunner is NewRunner for a test that cannot go on without one.
func newRunner(t testing.TB, eng *Engine, l *AlertLog, dir, cursorPath string) *Runner {
	t.Helper()
	r, err := NewRunner(eng, l, dir, cursorPath)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// openRunner opens a fresh alert log and cursor file under dir (see
// cursorPath). A goroutine count taken after openRunner already
// includes both committers.
func openRunner(t *testing.T, eng *Engine, dir string) *Runner {
	t.Helper()
	l, err := OpenAlertLog(filepath.Join(dir, "alerts.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	r := newRunner(t, eng, l, dir, cursorPath(dir))
	t.Cleanup(func() { r.Close() })
	return r
}

// cursorPath is where openRunner keeps the cursor file for dir.
func cursorPath(dir string) string { return filepath.Join(dir, "alerts.log.cursor") }

// cursorFrames returns every cursor the cursor file at path holds, in
// order, with the offset just past each frame.
func cursorFrames(t *testing.T, path string) (cs []Cursor, ends []int64) {
	t.Helper()
	_, _, err := framelog.Replay(path, cursorMagic, len(cursorMagic), 0, -1, func(end int64, p []byte) error {
		c, err := decodeCursor(p)
		cs, ends = append(cs, c), append(ends, end)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs, ends
}

// savedCursor returns the cursor file's last whole frame, the cursor a
// restart resumes from.
func savedCursor(t *testing.T, path string) Cursor {
	t.Helper()
	cs, _ := cursorFrames(t, path)
	if len(cs) == 0 {
		return Cursor{}
	}
	return cs[len(cs)-1]
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
	if saved := savedCursor(t, cursorPath(r.dir)); saved != c {
		t.Fatalf("persisted cursor %+v, in memory %+v", saved, c)
	}
	if c.LogOffset != r.log.Size() {
		t.Fatalf("log holds %d bytes past the cursor's %d", r.log.Size(), c.LogOffset)
	}
	for _, a := range replayAll(t, filepath.Join(r.dir, "alerts.log"), 0) {
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
			size := r.log.Size()
			if _, err := r.ProcessFile(context.Background(), path); err == nil || err.Error() != want {
				t.Fatalf("ProcessFile err = %v, want %q", err, want)
			}
			if r.log.Size() != size {
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
	ref := runPoll(t, eng, refDir, filepath.Join(refDir, "alerts.log"), filepath.Join(refDir, "alerts.log.cursor"))

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
	got := replayAll(t, filepath.Join(dir, "alerts.log"), 0)
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
	// Cancel as soon as the first file's cursor frame is on disk.
	go func() {
		for ctx.Err() == nil {
			if st, err := os.Stat(cursorPath(dir)); err == nil && st.Size() > int64(len(cursorMagic)) {
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

// TestRunnerCursorAppendsInPlace: a delta commit appends one frame to
// the cursor file and replaces nothing, so the file keeps its inode
// across polls and holds one frame per committed delta. A restart
// resumes from the last frame and rewrites the file as that frame.
func TestRunnerCursorAppendsInPlace(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 51, attackCfg, 2)
	r := openRunner(t, eng, dir)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(cursorPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	opened := stat()
	if files, _, err := r.Poll(context.Background()); err != nil || files != 2 {
		t.Fatalf("first poll: files=%d err=%v", files, err)
	}
	afterTwo := stat()
	days = writeDeltaDir(t, dir, 51, attackCfg, 3)
	if files, _, err := r.Poll(context.Background()); err != nil || files != 1 {
		t.Fatalf("second poll: files=%d err=%v", files, err)
	}
	if !os.SameFile(opened, afterTwo) || !os.SameFile(opened, stat()) {
		t.Fatal("the cursor file was replaced by a delta commit")
	}
	cs, _ := cursorFrames(t, cursorPath(dir))
	if len(cs) != 3 {
		t.Fatalf("cursor file holds %d frames after 3 deltas, want 3", len(cs))
	}
	for i, c := range cs {
		if c.Serial != days[i].Serial {
			t.Fatalf("frame %d: serial %d, want %d", i, c.Serial, days[i].Serial)
		}
	}
	requireCommittedThrough(t, r, days[2].Serial)
	last := r.Cursor()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newRunner(t, eng, r.log, dir, cursorPath(dir))
	defer r2.Close()
	if files, _, err := r2.Poll(context.Background()); err != nil || files != 0 {
		t.Fatalf("resumed poll: files=%d err=%v", files, err)
	}
	if r2.Cursor() != last {
		t.Fatalf("resumed at %+v, want %+v", r2.Cursor(), last)
	}
	if cs, _ := cursorFrames(t, cursorPath(dir)); len(cs) != 1 || cs[0] != last {
		t.Fatalf("restart left frames %+v, want the one %+v", cs, last)
	}
}

// TestRunnerRefusesJSONCursor: a cursor in the JSON form older builds
// wrote is refused when the runner is built, before any delta is read,
// naming the file and what deleting it costs, and the file is left as
// it was.
func TestRunnerRefusesJSONCursor(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	writeDeltaDir(t, dir, 51, attackCfg, 1)
	l, err := OpenAlertLog(filepath.Join(dir, "alerts.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path := filepath.Join(dir, "alerts.log.cursor")
	old := []byte(`{"serial":2017080101,"logOffset":4096}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, l, dir, path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "at-least-once") {
		t.Fatalf("NewRunner err = %v, want a refusal naming %s and the replay", err, path)
	}
	if r != nil || l.Size() != int64(len(logMagic)) {
		t.Fatalf("runner %v, log %d bytes: the refusal came too late", r, l.Size())
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(old) {
		t.Fatalf("refused cursor now %q (err %v), want it untouched", got, err)
	}
}

// eventCounts returns the number of events in each day's delta file.
func eventCounts(t *testing.T, dir string, days []*zonegen.DayDelta) []uint64 {
	t.Helper()
	out := make([]uint64, len(days))
	for i, d := range days {
		parsed, err := loadDelta(filepath.Join(dir, zonegen.DeltaFileName(d.Serial)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = uint64(len(parsed.Events))
	}
	return out
}

// awaitStage waits for another stage's hook to close ch. It runs in a
// hook, on one of Poll's goroutines, so it reports a timeout with
// Error, not Fatal.
func awaitStage(t *testing.T, ch <-chan struct{}, what string) bool {
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
		return false
	}
}

// requireCursorsAtSerialEnds checks every frame of the cursor file: its
// LogOffset ends exactly at the last alert of its serial, so no alert of
// a later file precedes it in the log.
func requireCursorsAtSerialEnds(t *testing.T, dir string) {
	t.Helper()
	cs, _ := cursorFrames(t, cursorPath(dir))
	for _, c := range cs {
		if want := cursorOffsetAfterSerial(t, filepath.Join(dir, "alerts.log"), c.Serial); c.LogOffset != want {
			t.Fatalf("cursor %+v: the alerts of serials up to %d end at %d", c, c.Serial, want)
		}
	}
}

// TestMatchStageOneFileAhead: while file 1's commit is held, the match
// stage finishes file 2 and then waits: file 3 is not matched until
// file 1 is committed. Released, the poll logs what the uninterrupted
// run logs, and every cursor frame ends at its serial's alerts.
func TestMatchStageOneFileAhead(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	refDir, dir := t.TempDir(), t.TempDir()
	writeDeltaDir(t, refDir, 51, attackCfg, 4)
	days := writeDeltaDir(t, dir, 51, attackCfg, 4)
	ref := runPoll(t, eng, refDir, filepath.Join(refDir, "alerts.log"), filepath.Join(refDir, "alerts.log.cursor"))

	r := openRunner(t, eng, dir)
	matched2 := make(chan struct{})
	var matched3 atomic.Bool
	r.hook = func(stage string, serial uint32) {
		switch {
		case stage == stageMatched && serial == days[1].Serial:
			close(matched2)
		case stage == stageMatched && serial == days[2].Serial:
			matched3.Store(true)
		case stage == stageCommit && serial == days[0].Serial:
			if awaitStage(t, matched2, "file 2's match") {
				time.Sleep(50 * time.Millisecond)
				if matched3.Load() {
					t.Error("file 3 was matched while file 1 commits and file 2 waits")
				}
			}
		}
	}
	files, alerts, err := r.Poll(context.Background())
	if err != nil || files != len(days) {
		t.Fatalf("Poll: %d files, err %v; want %d", files, err, len(days))
	}
	requireCommittedThrough(t, r, days[len(days)-1].Serial)
	requireCursorsAtSerialEnds(t, dir)
	got := replayAll(t, filepath.Join(dir, "alerts.log"), 0)
	if alerts != len(ref) || len(got) != len(ref) {
		t.Fatalf("%d alerts reported, %d logged; the uninterrupted run logs %d", alerts, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("alert %d: %+v, want %+v", i, got[i], ref[i])
		}
	}
}

// TestPollCancelWithFileInEachStage cancels with file 1 held in its
// commit, file 2 matched but not yet handed off, and file 3 parsed or
// being parsed: files 1 and 2 are committed whole (the match of 2 had
// started), file 3 is not started, and Poll returns only after the
// parse, match and commit goroutines have all exited.
func TestPollCancelWithFileInEachStage(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	refDir, dir := t.TempDir(), t.TempDir()
	writeDeltaDir(t, refDir, 51, attackCfg, 5)
	days := writeDeltaDir(t, dir, 51, attackCfg, 5)
	ref := runPoll(t, eng, refDir, filepath.Join(refDir, "alerts.log"), filepath.Join(refDir, "alerts.log.cursor"))

	events := eventCounts(t, dir, days)
	r := openRunner(t, eng, dir)
	base := eng.Metrics().In
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matched2 := make(chan struct{})
	r.hook = func(stage string, serial uint32) {
		switch {
		case stage == stageMatched && serial == days[1].Serial:
			cancel()
			close(matched2)
		case stage == stageCommit && serial == days[0].Serial:
			awaitStage(t, matched2, "file 2's match")
		}
	}
	before := runtime.NumGoroutine()
	files, alerts, err := r.Poll(ctx)
	if !errors.Is(err, context.Canceled) || files != 2 {
		t.Fatalf("Poll: %d files, err %v; want 2 and context.Canceled", files, err)
	}
	waitGoroutines(t, before)
	if got := eng.Metrics().In - base; got != events[0]+events[1] {
		t.Fatalf("%d events went to the match stage, files 1 and 2 hold %d: a file was started after the cancel", got, events[0]+events[1])
	}
	requireCommittedThrough(t, r, days[1].Serial)
	requireCursorsAtSerialEnds(t, dir)
	var want []Alert
	for _, a := range ref {
		if a.Serial <= days[1].Serial {
			want = append(want, a)
		}
	}
	got := replayAll(t, filepath.Join(dir, "alerts.log"), 0)
	if alerts != len(want) || len(got) != len(want) {
		t.Fatalf("%d alerts reported, %d logged; the uninterrupted run logs %d for files 1 and 2", alerts, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
