package framelog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var testHeader = []byte("TESTLOG1")

func openTest(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path, testHeader, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l
}

// replayIDs returns the payloads of path's frames as strings.
func replayIDs(t *testing.T, path string) []string {
	t.Helper()
	var ids []string
	if _, _, err := Replay(path, string(testHeader), len(testHeader), 0, -1, func(_ int64, p []byte) error {
		ids = append(ids, string(p))
		return nil
	}); err != nil {
		t.Fatalf("Replay(%s): %v", path, err)
	}
	return ids
}

// TestReplayWindow: from and limit bound the scan to whole frames, the
// callback offsets are the cursors, and a cursor past the file is an
// error rather than a clean empty replay.
func TestReplayWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	l := openTest(t, path)
	var ends []int64
	for i := 0; i < 4; i++ {
		end, err := l.Append([]byte(fmt.Sprintf("frame-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != ends[3] {
		t.Fatalf("Size %d after Close, want the last Append's offset %d", l.Size(), ends[3])
	}
	var got []string
	var cursors []int64
	// limit cuts frame 3 in half: it must not be delivered.
	hdr, end, err := Replay(path, string(testHeader), len(testHeader), ends[0], ends[3]-1, func(e int64, p []byte) error {
		got, cursors = append(got, string(p)), append(cursors, e)
		return nil
	})
	if err != nil || string(hdr) != string(testHeader) {
		t.Fatalf("Replay: hdr %q err %v", hdr, err)
	}
	if fmt.Sprint(got) != "[frame-1 frame-2]" || fmt.Sprint(cursors) != fmt.Sprint(ends[1:3]) || end != ends[2] {
		t.Fatalf("window replay: %v cursors %v end %d (frame ends %v)", got, cursors, end, ends)
	}
	if _, _, err := Replay(path, string(testHeader), len(testHeader), ends[3]+1, -1, nil); err == nil {
		t.Fatal("Replay accepted a cursor past the end of the file")
	}
	if _, _, err := Replay(path, "OTHERLOG", len(testHeader), 0, -1, nil); err == nil {
		t.Fatal("Replay accepted a foreign magic")
	}
	if _, err := l.Append(nil); err != ErrFrameSize {
		t.Fatalf("empty payload: %v, want ErrFrameSize", err)
	}
	if _, err := l.Append([]byte("late")); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}

// TestCommitFailureIsSticky forces the committer's write to fail (the
// file is closed under it) and pins the failure contract both tiers
// rely on: Sync returns the error, later Appends are refused with it,
// and Close returns it.
func TestCommitFailureIsSticky(t *testing.T) {
	l := openTest(t, filepath.Join(t.TempDir(), "dead.log"))
	if _, err := l.Append([]byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the disk goes away
	if _, err := l.Append([]byte("lost")); err != nil {
		t.Fatalf("Append before the failed commit: %v", err)
	}
	werr := l.Sync()
	if werr == nil {
		t.Fatal("Sync returned nil after a failed commit")
	}
	if st := l.Stats(); st.Appended != 2 || st.Durable != 1 {
		t.Fatalf("stats %+v, want 2 appended, 1 durable", st)
	}
	if _, err := l.Append([]byte("refused")); !errors.Is(err, werr) {
		t.Fatalf("Append on a dead log: %v, want %v", err, werr)
	}
	if err := l.Sync(); !errors.Is(err, werr) {
		t.Fatalf("second Sync: %v, want %v", err, werr)
	}
	if err := l.Err(); !errors.Is(err, werr) {
		t.Fatalf("Err: %v, want %v", err, werr)
	}
	if err := l.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close: %v, want %v", err, werr)
	}
	if err := l.Close(); !errors.Is(err, werr) {
		t.Fatalf("second Close: %v, want %v", err, werr)
	}
}

// TestRotationHandOff rotates (Close the old log, Open the next, under
// the caller's lock — how vstore does it) while appenders and syncers
// run: every frame a Sync acknowledged before the rotation started is
// in the old file, and across both files no frame is lost or doubled.
func TestRotationHandOff(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.log"), filepath.Join(dir, "new.log")
	var (
		mu       sync.Mutex
		cur      = openTest(t, oldPath)
		next     int
		rotating bool
		acked    []string // acknowledged by a Sync that returned before the rotation began
	)
	// Writer 0 rotates halfway through its own run, so the rotation lands
	// mid-run however the goroutines are scheduled.
	rotate := func() error {
		mu.Lock()
		defer mu.Unlock()
		rotating = true
		if err := cur.Close(); err != nil {
			return err
		}
		next, err := Open(newPath, testHeader, nil)
		cur = next
		return err
	}
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w == 0 && i == per/2 {
					if err := rotate(); err != nil {
						t.Error(err)
						return
					}
				}
				mu.Lock()
				id := fmt.Sprintf("id-%05d", next)
				next++
				_, err := cur.Append([]byte(id))
				l := cur
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 != 0 {
					continue
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if !rotating {
					acked = append(acked, id)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}

	inOld := make(map[string]bool)
	seen := make(map[string]int)
	for _, id := range replayIDs(t, oldPath) {
		inOld[id] = true
		seen[id]++
	}
	for _, id := range replayIDs(t, newPath) {
		seen[id]++
	}
	if len(acked) == 0 || len(inOld) == 0 || len(inOld) == writers*per {
		t.Fatalf("rotation did not land mid-run: %d acked before it, %d of %d frames in the old file", len(acked), len(inOld), writers*per)
	}
	for _, id := range acked {
		if !inOld[id] {
			t.Fatalf("%s was acknowledged before the rotation but is not in the old file", id)
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct frames across both files, want %d", len(seen), writers*per)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("%s appears %d times across the rotation", id, n)
		}
	}
}

// TestReplaceFile: a failed write leaves the old file and no temp file;
// a successful one replaces the content.
func TestReplaceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	write := func(s string, fail error) error {
		return ReplaceFile(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("old", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := write("half-written new", boom); err != boom {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed replace left %q, want the old content", got)
	}
	if tmps, _ := filepath.Glob(path + "*.tmp"); len(tmps) != 0 {
		t.Fatalf("failed replace leaked %v", tmps)
	}
	if err := write("new", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("replace left %q, want the new content", got)
	}
}

// TestReadFramesRefusesWhatReplayStopsAt: the defects a crash leaves at
// a file's tail, which Replay stops at cleanly, are errors in frames
// another process sent — and a whole run reads back every payload.
func TestReadFramesRefusesWhatReplayStopsAt(t *testing.T) {
	var data []byte
	for _, p := range []string{"one", "two", "three"} {
		data = AppendFrame(data, []byte(p))
	}
	var got []string
	if err := ReadFrames(data, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil || fmt.Sprint(got) != "[one two three]" {
		t.Fatalf("ReadFrames = %v, %v; want [one two three]", got, err)
	}
	if err := ReadFrames(nil, nil); err != nil {
		t.Fatalf("an empty run: %v", err)
	}
	badCRC := append([]byte(nil), data...)
	badCRC[len(badCRC)-1] ^= 1
	zeroLen := AppendFrame(nil, []byte("x"))
	zeroLen[0] = 0
	for name, bad := range map[string][]byte{
		"a CRC mismatch":          badCRC,
		"a frame cut short":       data[:len(data)-1],
		"a header cut short":      append(append([]byte(nil), data...), 1, 0, 0),
		"a byte after the frames": append(append([]byte(nil), data...), 0),
		"a zero length":           zeroLen,
	} {
		n := 0
		err := ReadFrames(bad, func([]byte) error { n++; return nil })
		if err == nil {
			t.Errorf("%s: accepted after %d payloads", name, n)
		}
	}
	stop := errors.New("stop")
	if err := ReadFrames(data, func([]byte) error { return stop }); err != stop {
		t.Fatalf("fn's error: got %v", err)
	}
}
