package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runPoll builds a Runner over dir/log/cursor, polls once, closes the
// log, and returns the alerts now durable in the log.
func runPoll(t *testing.T, eng *Engine, dir, logPath, cursorPath string) []Alert {
	t.Helper()
	l, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Engine: eng, Log: l, Dir: dir, CursorPath: cursorPath}
	if _, _, err := r.Poll(context.Background()); err != nil {
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
	cursorPath := filepath.Join(dir, "cursor.json")
	l, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Engine: eng, Log: l, Dir: dir, CursorPath: cursorPath}

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
	l.Close()

	// A fresh runner over the same cursor resumes with nothing to do.
	l2, err := OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Engine: eng, Log: l2, Dir: dir, CursorPath: cursorPath}
	if files, _, err := r2.Poll(context.Background()); err != nil || files != 0 {
		t.Fatalf("resumed poll: files=%d err=%v", files, err)
	}
	l2.Close()
}

// TestRunnerCrashRecovery is the durability acceptance test: kill the
// daemon at an arbitrary byte mid-way through a delta's alert batch
// (simulated by truncating the log to any prefix and rolling the cursor
// back, exactly the state a SIGKILL between fsync and cursor-save
// leaves), restart, and the replayed findings must equal the
// uninterrupted run's — at least once, duplicates detectable by key.
func TestRunnerCrashRecovery(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	writeDeltaDir(t, dir, 51, attackCfg, 3)

	// Reference: one uninterrupted run over all three days.
	refLog := filepath.Join(dir, "ref.log")
	ref := runPoll(t, eng, dir, refLog, filepath.Join(dir, "ref-cursor.json"))
	if len(ref) < 6 {
		t.Fatalf("reference run too thin: %d alerts", len(ref))
	}
	refKeys := make([]string, len(ref))
	for i, a := range ref {
		refKeys[i] = a.Key()
	}

	// Establish the pre-crash state: days 1–2 fully processed.
	liveLog := filepath.Join(dir, "live.log")
	liveCursor := filepath.Join(dir, "live-cursor.json")
	{
		l, err := OpenAlertLog(liveLog)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Engine: eng, Log: l, Dir: dir, CursorPath: liveCursor}
		if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, "delta-2017080101.zone")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, "delta-2017080102.zone")); err != nil {
			t.Fatal(err)
		}
		// Day 3's alerts land in the log...
		if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, "delta-2017080103.zone")); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	day2, err := LoadCursor(liveCursor)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := os.ReadFile(liveLog)
	if err != nil {
		t.Fatal(err)
	}
	day2 = Cursor{Serial: day2.Serial - 1, LogOffset: cursorOffsetAfterSerial(t, liveLog, day2.Serial-1)}

	// Crash at every interesting byte: before any day-3 frame, inside
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

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashLog := filepath.Join(dir, fmt.Sprintf("crash-%d.log", cut))
			crashCursor := filepath.Join(dir, fmt.Sprintf("crash-%d-cursor.json", cut))
			if err := os.WriteFile(crashLog, fullBytes[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := SaveCursor(crashCursor, day2); err != nil {
				t.Fatal(err)
			}

			// Restart: recovery truncates any torn frame, the cursor
			// says day 2, so day 3 is reprocessed in full.
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
			// Survived complete day-3 frames are re-emitted by the
			// replayed delta: duplicates expected exactly then.
			survived := 0
			for _, b := range bounds {
				if b <= cut {
					survived++
				}
			}
			if dups != survived {
				t.Errorf("cut %d: %d duplicates, want %d (frames below cut)", cut, dups, survived)
			}
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

// TestSaveCursorFailedWrite: when the write itself fails — the temp
// file is pointed at /dev/full, so the kernel answers ENOSPC like a
// full disk would — SaveCursor reports it, leaves no *.tmp behind and
// the previous cursor stays readable.
func TestSaveCursorFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "cursor.json")
	old := Cursor{Serial: 2017080102, LogOffset: 4096}
	if err := SaveCursor(path, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCursor(path, Cursor{Serial: 2017080103, LogOffset: 8192}); err == nil {
		t.Fatal("SaveCursor succeeded writing to a full device")
	}
	if tmps, _ := filepath.Glob(path + "*.tmp"); len(tmps) != 0 {
		t.Fatalf("failed save left %v behind", tmps)
	}
	if got, err := LoadCursor(path); err != nil || got != old {
		t.Fatalf("after the failed save: cursor %+v err %v, want the old %+v", got, err, old)
	}
	// And the next save goes through.
	if err := SaveCursor(path, Cursor{Serial: 2017080103, LogOffset: 8192}); err != nil {
		t.Fatal(err)
	}
}
