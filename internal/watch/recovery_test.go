package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runPoll builds a Runner over dir/log/cursor, polls once, closes the
// cursor file and the log, and returns the alerts now durable in the log.
func runPoll(t *testing.T, eng *Engine, dir, logPath, cursorPath string) []Alert {
	t.Helper()
	l, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, eng, l, dir, cursorPath)
	if _, _, err := r.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return replayAll(t, logPath, 0)
}

// TestRunnerPollCursorAdvance: polling processes pending files in
// serial order exactly once; new files picked up on the next poll.
func TestRunnerPollCursorAdvance(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	writeDeltaDir(t, dir, 51, attackCfg, 2)

	logPath := filepath.Join(dir, "alerts.log")
	cursorPath := filepath.Join(dir, "alerts.log.cursor")
	l, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, eng, l, dir, cursorPath)

	files, alerts, err := r.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if files != 2 || alerts == 0 {
		t.Fatalf("first poll: %d files, %d alerts", files, alerts)
	}
	c := r.Cursor()
	if c.Serial == 0 || c.LogOffset != l.Size() {
		t.Fatalf("cursor %+v (log size %d)", c, l.Size())
	}

	// Nothing new: poll is a no-op.
	if files, _, err := r.Poll(context.Background()); err != nil || files != 0 {
		t.Fatalf("idle poll: files=%d err=%v", files, err)
	}

	// Day 3 appears; only it is processed.
	writeDeltaDir(t, dir, 51, attackCfg, 3)
	files, _, err = r.Poll(context.Background())
	if err != nil || files != 1 {
		t.Fatalf("poll after day 3: files=%d err=%v", files, err)
	}
	if got := r.Cursor().Serial; got != c.Serial+1 {
		t.Fatalf("cursor serial %d, want %d", got, c.Serial+1)
	}
	r.Close()
	l.Close()

	// A fresh runner over the same cursor resumes with nothing to do.
	l2, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r2 := newRunner(t, eng, l2, dir, cursorPath)
	if files, _, err := r2.Poll(context.Background()); err != nil || files != 0 {
		t.Fatalf("resumed poll: files=%d err=%v", files, err)
	}
	r2.Close()
	l2.Close()
}

// TestRunnerCrashRecovery is the durability acceptance test: kill the
// daemon at an arbitrary byte while it commits a delta, restart, and the
// replayed findings must equal the uninterrupted run's — at least once,
// duplicates detectable by key. Two kinds of cut cover every state a
// SIGKILL leaves: the alert log cut at any byte of the day-3 alerts with
// the cursor file cut just after the day-2 frame (killed before the
// alerts were durable, so the cursor frame was never appended), and the
// whole log with the cursor file cut at every byte of the day-3 frame
// (killed between the alert fsync and the cursor frame's).
func TestRunnerCrashRecovery(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	writeDeltaDir(t, dir, 51, attackCfg, 3)

	// Reference: one uninterrupted run over all three days.
	refLog := filepath.Join(dir, "ref.log")
	ref := runPoll(t, eng, dir, refLog, filepath.Join(dir, "ref.log.cursor"))
	if len(ref) < 6 {
		t.Fatalf("reference run too thin: %d alerts", len(ref))
	}
	refKeys := make([]string, len(ref))
	for i, a := range ref {
		refKeys[i] = a.Key()
	}

	// The state a crash cuts into: days 1–3 processed one file at a time.
	liveLog := filepath.Join(dir, "live.log")
	liveCursor := filepath.Join(dir, "live.log.cursor")
	{
		l, err := OpenAlertLog(liveLog)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(t, eng, l, dir, liveCursor)
		for _, name := range []string{"delta-2017080101.zone", "delta-2017080102.zone", "delta-2017080103.zone"} {
			if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
		l.Close()
	}
	fullBytes, err := os.ReadFile(liveLog)
	if err != nil {
		t.Fatal(err)
	}
	cursorBytes, err := os.ReadFile(liveCursor)
	if err != nil {
		t.Fatal(err)
	}
	cs, ends := cursorFrames(t, liveCursor)
	if len(cs) != 3 || int64(len(cursorBytes)) != ends[2] {
		t.Fatalf("cursor file: %d frames in %d bytes, want 3 ending at the file's end", len(cs), len(cursorBytes))
	}
	day2 := cs[1]
	if want := cursorOffsetAfterSerial(t, liveLog, day2.Serial); day2.LogOffset != want {
		t.Fatalf("day-2 frame holds log offset %d, the log's day-2 alerts end at %d", day2.LogOffset, want)
	}

	// Log cuts at every interesting byte: before any day-3 frame, inside
	// the first frame, at frame boundaries, inside the last frame.
	cuts := []int64{day2.LogOffset, day2.LogOffset + 3}
	var bounds []int64
	if _, err := ReplayAlertLog(liveLog, day2.LogOffset, func(off int64, a Alert) error {
		bounds = append(bounds, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 2 {
		t.Fatalf("day 3 produced %d alerts; need >= 2 for a meaningful crash test", len(bounds))
	}
	cuts = append(cuts, bounds[0], bounds[0]+5, bounds[len(bounds)-2], int64(len(fullBytes))-1)

	// restart runs a runner over the given log and cursor bytes and checks
	// the deduped replay against the reference. Survived complete day-3
	// alert frames are re-emitted by the replayed delta: duplicates
	// expected exactly then.
	restart := func(t *testing.T, logBytes, curBytes []byte) {
		crashLog := filepath.Join(t.TempDir(), "crash.log")
		crashCursor := crashLog + ".cursor"
		if err := os.WriteFile(crashLog, logBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashCursor, curBytes, 0o644); err != nil {
			t.Fatal(err)
		}

		// Restart: recovery truncates any torn frame in either file, the
		// cursor says day 2, so day 3 is reprocessed in full.
		got := runPoll(t, eng, dir, crashLog, crashCursor)

		// Dedup by key, preserving first occurrence.
		seen := make(map[string]Alert)
		var keys []string
		dups := 0
		for _, a := range got {
			k := a.Key()
			if prev, ok := seen[k]; ok {
				dups++
				if prev != a {
					t.Errorf("duplicate key %s with different payloads:\n%+v\n%+v", k, prev, a)
				}
				continue
			}
			seen[k] = a
			keys = append(keys, k)
		}
		if len(keys) != len(refKeys) {
			t.Fatalf("recovered run has %d unique alerts, reference %d", len(keys), len(refKeys))
		}
		for i, k := range keys {
			if k != refKeys[i] {
				t.Fatalf("alert %d: key %s, reference %s", i, k, refKeys[i])
			}
			if seen[k] != ref[i] {
				t.Fatalf("alert %s payload differs from reference:\n%+v\n%+v", k, seen[k], ref[i])
			}
		}
		survived := 0
		for _, b := range bounds {
			if b <= int64(len(logBytes)) {
				survived++
			}
		}
		if dups != survived {
			t.Errorf("log of %d bytes: %d duplicates, want %d (frames below the cut)", len(logBytes), dups, survived)
		}
	}

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			restart(t, fullBytes[:cut], cursorBytes[:ends[1]])
		})
	}
	for cut := ends[1]; cut < ends[2]; cut++ {
		t.Run(fmt.Sprintf("cursor-cut=%d", cut), func(t *testing.T) {
			restart(t, fullBytes, cursorBytes[:cut])
		})
	}
}

// cursorOffsetAfterSerial replays the log and returns the offset just
// past the last alert of the given serial.
func cursorOffsetAfterSerial(t *testing.T, path string, serial uint32) int64 {
	t.Helper()
	var off int64 = int64(len(logMagic))
	if _, err := ReplayAlertLog(path, 0, func(o int64, a Alert) error {
		if a.Serial <= serial {
			off = o
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return off
}
