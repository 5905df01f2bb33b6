package watch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"idnlab/internal/framelog"
)

func testAlert(i int) Alert {
	return Alert{
		Serial:  uint32(2017080101 + i/10),
		Op:      "add",
		Domain:  fmt.Sprintf("xn--test%d.com", i),
		Unicode: fmt.Sprintf("tëst%d.com", i),
		Brand:   "example.com",
		SSIM:    0.99,
		Subs:    1 + i%5,
	}
}

func replayAll(t testing.TB, path string, from int64) []Alert {
	t.Helper()
	var out []Alert
	if _, err := ReplayAlertLog(path, from, func(off int64, a Alert) error {
		out = append(out, a)
		return nil
	}); err != nil {
		t.Fatalf("ReplayAlertLog: %v", err)
	}
	return out
}

func TestAlertLogAppendSyncReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var mid int64
	for i := 0; i < n; i++ {
		if err := l.Append(testAlert(i)); err != nil {
			t.Fatal(err)
		}
		if i == n/2-1 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			mid = l.Size() // cursor after the first half
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != n || st.Durable != n {
		t.Fatalf("stats %+v, want %d appended+durable", st, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	all := replayAll(t, path, 0)
	if len(all) != n {
		t.Fatalf("replayed %d alerts, want %d", len(all), n)
	}
	for i, a := range all {
		if a != testAlert(i) {
			t.Fatalf("alert %d round-trip mismatch: %+v", i, a)
		}
	}
	tail := replayAll(t, path, mid)
	if len(tail) != n/2 || tail[0] != testAlert(n/2) {
		t.Fatalf("cursor replay from %d: %d alerts, first %+v", mid, len(tail), tail[0])
	}
}

// TestAlertLogRecoverTornTail: truncating the file at every byte
// boundary inside the last frame must recover to exactly the alerts
// whose frames are complete — a torn tail is dropped, never delivered,
// and never blocks reopening.
func TestAlertLogRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	l, err := OpenAlertLog(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(testAlert(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	full := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Offsets of each complete frame boundary.
	var bounds []int64
	if _, err := ReplayAlertLog(ref, 0, func(off int64, a Alert) error {
		bounds = append(bounds, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bounds[len(bounds)-1] != full {
		t.Fatalf("replay end %d != durable size %d", bounds[len(bounds)-1], full)
	}

	lastStart := bounds[len(bounds)-2]
	for cut := lastStart + 1; cut < full; cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := OpenAlertLog(p)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if rl.Size() != lastStart {
			t.Fatalf("cut %d: recovered size %d, want %d", cut, rl.Size(), lastStart)
		}
		// The log stays appendable after recovery.
		if err := rl.Append(testAlert(99)); err != nil {
			t.Fatal(err)
		}
		if err := rl.Sync(); err != nil {
			t.Fatal(err)
		}
		rl.Close()
		got := replayAll(t, p, 0)
		if len(got) != 5 || got[4] != testAlert(99) {
			t.Fatalf("cut %d: replay after recovery = %d alerts (last %+v)", cut, len(got), got[len(got)-1])
		}
	}
}

func TestAlertLogRejectsForeignFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(p, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAlertLog(p); err == nil {
		t.Fatal("OpenAlertLog accepted a foreign file")
	}
	if _, err := ReplayAlertLog(p, 0, func(int64, Alert) error { return nil }); err == nil {
		t.Fatal("ReplayAlertLog accepted a foreign file")
	}
}

// TestAlertLogGroupCommit: concurrent appenders must all end durable,
// with commits batching at least some of them (under concurrency the
// committer drains multiple frames per fsync).
func TestAlertLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append(testAlert(w*perWriter + i)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := l.Sync(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Durable != writers*perWriter {
		t.Fatalf("durable %d, want %d", st.Durable, writers*perWriter)
	}
	if st.Commits == 0 || st.Commits > st.Durable {
		t.Fatalf("commits %d out of range (durable %d)", st.Commits, st.Durable)
	}
	t.Logf("group commit: %d frames in %d commits (avg batch %.1f, max %d)",
		st.Durable, st.Commits, st.AvgBatch(), st.MaxBatch)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path, 0); len(got) != writers*perWriter {
		t.Fatalf("replayed %d, want %d", len(got), writers*perWriter)
	}
}

// FuzzAlertLogReplay: replay over arbitrary bytes must never panic and
// must never return alerts past the first invalid frame.
func FuzzAlertLogReplay(f *testing.F) {
	// Seed with a genuine log.
	dir, err := os.MkdirTemp("", "fuzzlog")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	p := filepath.Join(dir, "seed.log")
	l, err := OpenAlertLog(p)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.Append(testAlert(i))
	}
	l.Sync()
	l.Close()
	seed, err := os.ReadFile(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, int64(0))
	f.Add(seed[:len(seed)-3], int64(0))
	f.Add([]byte(logMagic), int64(0))
	f.Add([]byte{}, int64(0))
	f.Add(append([]byte(logMagic), bytes.Repeat([]byte{0xFF}, 64)...), int64(9))

	noFsync := framelog.Options{NoFsync: true} // throwaway logs: durability is irrelevant
	f.Fuzz(func(t *testing.T, data []byte, from int64) {
		p := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		if from < 0 || from > int64(len(data))+16 {
			from = 0
		}
		var prev int64
		end, err := ReplayAlertLog(p, from, func(off int64, a Alert) error {
			if off <= prev {
				t.Fatalf("offsets not monotonic: %d after %d", off, prev)
			}
			prev = off
			return nil
		})
		if err == nil && end > int64(len(data)) {
			t.Fatalf("replay end %d past file size %d", end, len(data))
		}
		// Recovery must also never panic, and a recovered file must
		// replay cleanly end to end.
		if rl, err := openAlertLog(p, noFsync); err == nil {
			size := rl.Size()
			rl.Close()
			if fin, err := ReplayAlertLog(p, 0, func(int64, Alert) error { return nil }); err != nil || fin != size {
				t.Fatalf("post-recovery replay: end %d size %d err %v", fin, size, err)
			}
		}
	})
}
