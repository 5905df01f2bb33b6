package watch

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"idnlab/internal/zonegen"
)

// failCursorWrites points the runner's open cursor file descriptor at
// /dev/full, so the next frame write gets ENOSPC as on a full disk. The
// descriptor is found by its inode; the committer is idle between
// deltas, so nothing uses it during the swap.
func failCursorWrites(t *testing.T, r *Runner) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	var want syscall.Stat_t
	if err := syscall.Stat(cursorPath(r.dir), &want); err != nil {
		t.Fatal(err)
	}
	for fd := 3; fd < 1024; fd++ {
		var st syscall.Stat_t
		if syscall.Fstat(fd, &st) == nil && st.Dev == want.Dev && st.Ino == want.Ino {
			if err := syscall.Dup3(int(full.Fd()), fd, syscall.O_CLOEXEC); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("the cursor file is not open")
}

// TestCursorCommitFailedWrite: when a cursor frame cannot be written,
// Poll returns the error, the in-memory cursor stays on the last durable
// frame, and a restart resumes from that frame and replays the delta
// whose commit failed — duplicates by key, no alert lost.
func TestCursorCommitFailedWrite(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 51, attackCfg, 3)
	ref := runPoll(t, eng, dir, filepath.Join(dir, "ref.log"), filepath.Join(dir, "ref.log.cursor"))

	r := openRunner(t, eng, dir)
	if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, "delta-2017080101.zone")); err != nil {
		t.Fatal(err)
	}
	durable := r.Cursor()
	if durable.Serial != days[0].Serial {
		t.Fatalf("cursor serial %d after day 1, want %d", durable.Serial, days[0].Serial)
	}
	failCursorWrites(t, r)
	files, _, err := r.Poll(context.Background())
	if err == nil {
		t.Fatal("Poll succeeded with the cursor file on a full device")
	}
	if files != 0 {
		t.Fatalf("Poll counted %d files committed past a failed cursor write", files)
	}
	if r.Cursor() != durable {
		t.Fatalf("in-memory cursor %+v passed the last durable frame %+v", r.Cursor(), durable)
	}
	if saved := savedCursor(t, cursorPath(dir)); saved != durable {
		t.Fatalf("cursor file holds %+v, want %+v", saved, durable)
	}
	r.Close()

	// Restart over the same files: resume after day 1, replay day 2.
	r2 := newRunner(t, eng, r.log, dir, cursorPath(dir))
	defer r2.Close()
	if files, _, err := r2.Poll(context.Background()); err != nil || files != 2 {
		t.Fatalf("resumed poll: files=%d err=%v, want days 2 and 3", files, err)
	}
	requireCommittedThrough(t, r2, days[2].Serial)
	seen := make(map[string]bool)
	var got []Alert
	for _, a := range replayAll(t, filepath.Join(dir, "alerts.log"), 0) {
		if !seen[a.Key()] {
			seen[a.Key()] = true
			got = append(got, a)
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%d unique alerts after the restart, the uninterrupted run logs %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("alert %d: %+v, want %+v", i, got[i], ref[i])
		}
	}
}

// TestCursorFailsWhileNextFileMatched: the cursor write of file 2
// fails while file 3 is already matched. The commit stage stops, so
// file 3 is never handed to it: none of its alerts reaches the log, Poll
// counts no file, and the in-memory cursor stays on the last durable
// frame.
func TestCursorFailsWhileNextFileMatched(t *testing.T) {
	eng, _ := testFixture(t, 80, 4)
	dir := t.TempDir()
	days := writeDeltaDir(t, dir, 51, attackCfg, 3)

	r := openRunner(t, eng, dir)
	if _, err := r.ProcessFile(context.Background(), filepath.Join(dir, zonegen.DeltaFileName(days[0].Serial))); err != nil {
		t.Fatal(err)
	}
	durable := r.Cursor()
	failCursorWrites(t, r)
	matched3 := make(chan struct{})
	r.hook = func(stage string, serial uint32) {
		switch {
		case stage == stageMatched && serial == days[2].Serial:
			close(matched3)
		case stage == stageCommit && serial == days[1].Serial:
			awaitStage(t, matched3, "file 3's match")
		}
	}
	before := runtime.NumGoroutine()
	files, _, err := r.Poll(context.Background())
	if err == nil {
		t.Fatal("Poll succeeded with the cursor file on a full device")
	}
	waitGoroutines(t, before)
	if files != 0 {
		t.Fatalf("Poll counted %d files committed past a failed cursor write", files)
	}
	if r.Cursor() != durable {
		t.Fatalf("in-memory cursor %+v passed the last durable frame %+v", r.Cursor(), durable)
	}
	if saved := savedCursor(t, cursorPath(dir)); saved != durable {
		t.Fatalf("cursor file holds %+v, want %+v", saved, durable)
	}
	for _, a := range replayAll(t, filepath.Join(dir, "alerts.log"), 0) {
		if a.Serial == days[2].Serial {
			t.Fatalf("alert %+v of file 3 logged after file 2's cursor write failed", a)
		}
	}
}
