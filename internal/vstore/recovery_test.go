package vstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"idnlab/internal/framelog"
)

const frameHeader = framelog.FrameHeader // u32le len + u32le crc

// Crash-recovery tests, mirroring watch/recovery_test.go's discipline:
// build a store, cut its files at every interesting byte, reopen, and
// assert byte-level truncation plus warm-state equivalence with an
// uninterrupted run. These tests simulate the crash by mutilating files
// directly, so physical fsync ordering is not what is under test.

// frameBoundaries returns the byte offsets (from file start) at which
// each complete frame in the log ends — offset 0 of the frame region is
// logHeaderSize.
func frameBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < logHeaderSize || string(buf[:8]) != logMagic {
		t.Fatalf("%s: not a log file", path)
	}
	var bounds []int64
	pos := int64(logHeaderSize)
	for pos+frameHeader <= int64(len(buf)) {
		fl := frameLen(buf[pos:])
		if pos+fl > int64(len(buf)) {
			break
		}
		pos += fl
		bounds = append(bounds, pos)
	}
	return bounds
}

// frameLen returns the total byte length of the frame at the start of b.
func frameLen(b []byte) int64 {
	n := int64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	return int64(frameHeader) + n
}

// activeLog returns the single log file of a freshly closed store dir.
func activeLog(t *testing.T, dir string) string {
	t.Helper()
	logs, err := listLogs(dir)
	if err != nil || len(logs) == 0 {
		t.Fatalf("no log files in %s: %v", dir, err)
	}
	return logs[len(logs)-1]
}

// buildStore writes n records and closes the store cleanly.
func buildStore(t *testing.T, dir string, n int) {
	t.Helper()
	s := openTest(t, dir, -1)
	for i := 0; i < n; i++ {
		s.Append(testVerdict(i, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// warmState reopens dir and returns key → (seq, unicode) of the
// recovered records, closing the store again.
func warmState(t *testing.T, dir string) map[string][2]string {
	t.Helper()
	s := openTest(t, dir, -1)
	defer s.Close()
	m := make(map[string][2]string)
	for _, r := range s.TakeRecovered() {
		m[r.Verdict.Domain] = [2]string{fmt.Sprint(r.Seq), r.Verdict.Unicode}
	}
	return m
}

// copyDir clones a store directory — the "SIGKILL froze the disk here"
// primitive.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailTruncatedAtEveryByte kills mid-append at every byte of the
// final frame and asserts recovery truncates to exactly the last
// complete frame boundary and recovers exactly the acknowledged prefix.
func TestTornTailTruncatedAtEveryByte(t *testing.T) {
	master := t.TempDir()
	const n = 4
	buildStore(t, master, n)
	logPath := activeLog(t, master)
	bounds := frameBoundaries(t, logPath)
	if len(bounds) != n {
		t.Fatalf("%d frame boundaries, want %d", len(bounds), n)
	}
	lastGood := bounds[n-2] // end of record n-1
	fileEnd := bounds[n-1]

	for cut := lastGood + 1; cut < fileEnd; cut++ {
		dir := filepath.Join(t.TempDir(), "cut")
		copyDir(t, master, dir)
		cutLog := activeLog(t, dir)
		if err := os.Truncate(cutLog, cut); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, -1)
		recs := s.TakeRecovered()
		if len(recs) != n-1 {
			t.Fatalf("cut@%d: recovered %d records, want %d", cut, len(recs), n-1)
		}
		s.Close()
		// Byte-level: the torn tail is physically gone after reopen.
		st, err := os.Stat(cutLog)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != lastGood {
			t.Fatalf("cut@%d: file is %d bytes after recovery, want truncation to %d", cut, st.Size(), lastGood)
		}
	}
}

// TestCorruptTailFrameDropped flips a payload byte in the final frame:
// the CRC must reject it and recovery truncates it away like a torn
// tail.
func TestCorruptTailFrameDropped(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	buildStore(t, dir, n)
	logPath := activeLog(t, dir)
	bounds := frameBoundaries(t, logPath)
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[bounds[n-1]-1] ^= 0xff // corrupt the last payload byte
	if err := os.WriteFile(logPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, -1)
	defer s.Close()
	if recs := s.TakeRecovered(); len(recs) != n-1 {
		t.Fatalf("recovered %d records after CRC corruption, want %d", len(recs), n-1)
	}
	if st, _ := os.Stat(logPath); st.Size() != bounds[n-2] {
		t.Fatalf("file %d bytes, want truncation to %d", st.Size(), bounds[n-2])
	}
}

// TestCrashMidSnapshotCutover simulates dying between writing
// snapshot.vsnap.tmp and the rename: the temp file must be discarded on
// reopen and the previous snapshot (plus logs) must still produce the
// full warm state.
func TestCrashMidSnapshotCutover(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	for i := 0; i < 20; i++ {
		s.Append(testVerdict(i, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // real snapshot at seq 20
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		s.Append(testVerdict(i, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The crash: a half-written replacement snapshot that never renamed.
	tmp := filepath.Join(dir, snapName+".tmp")
	if err := os.WriteFile(tmp, []byte("IDNVSNP1 then garbage that is not frames"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, -1)
	defer r.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("snapshot temp file survived reopen")
	}
	recs := r.TakeRecovered()
	if len(recs) != 30 {
		t.Fatalf("recovered %d records, want 30 (snapshot 20 + log 10)", len(recs))
	}
	st := r.Stats()
	if st.SnapshotSeq != 20 {
		t.Fatalf("snapshot watermark %d, want the pre-crash 20", st.SnapshotSeq)
	}
}

// TestRecoveredEqualsUninterruptedRun freezes a store's directory
// mid-life (the SIGKILL snapshot), lets the original continue, and
// asserts the frozen copy recovers byte-for-byte the same warm state as
// a store that stopped cleanly at the same point.
func TestRecoveredEqualsUninterruptedRun(t *testing.T) {
	live := t.TempDir()
	clean := t.TempDir()
	const half = 25

	s := openTest(t, live, -1)
	for i := 0; i < half; i++ {
		s.Append(testVerdict(i, 1))
		s.Append(testVerdict(i, 2)) // every key rewritten once
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	frozen := filepath.Join(t.TempDir(), "frozen")
	copyDir(t, live, frozen) // SIGKILL here
	for i := half; i < 2*half; i++ {
		s.Append(testVerdict(i, 1))
	}
	s.Sync()
	s.Close()

	// Uninterrupted reference: same first-half appends, clean close.
	c := openTest(t, clean, -1)
	for i := 0; i < half; i++ {
		c.Append(testVerdict(i, 1))
		c.Append(testVerdict(i, 2))
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	got, want := warmState(t, frozen), warmState(t, clean)
	if len(got) != len(want) {
		t.Fatalf("frozen copy recovered %d keys, clean run %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("key %s: frozen %v, clean %v", k, got[k], w)
		}
	}
}

// TestBadMagicRefused ensures a non-log file is a loud error, not
// silent data loss.
func TestBadMagicRefused(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 3)
	logPath := activeLog(t, dir)
	buf, _ := os.ReadFile(logPath)
	copy(buf, "NOTALOG!")
	os.WriteFile(logPath, buf, 0o644)
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with corrupt magic")
	}
}

// TestTruncatedSnapshotRefused: a snapshot whose record count disagrees
// with its header is corruption (the atomic rename means a crash cannot
// produce it) and must fail loudly.
func TestTruncatedSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	for i := 0; i < 10; i++ {
		s.Append(testVerdict(i, 1))
	}
	s.Sync()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snap := filepath.Join(dir, snapName)
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf[:len(buf)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a truncated snapshot")
	}
}

// TestTornTailAcrossRestartChain: repeated crash/recover cycles must
// each preserve the durable prefix — no cumulative damage.
func TestTornTailAcrossRestartChain(t *testing.T) {
	dir := t.TempDir()
	total := 0
	for round := 0; round < 5; round++ {
		s := openTest(t, dir, -1)
		s.TakeRecovered()
		for i := 0; i < 10; i++ {
			s.Append(testVerdict(total, 1))
			total++
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// Tear 3 bytes off the log tail — mid-frame.
		logPath := activeLog(t, dir)
		st, _ := os.Stat(logPath)
		if err := os.Truncate(logPath, st.Size()-3); err != nil {
			t.Fatal(err)
		}
		total-- // the torn record is gone
	}
	s := openTest(t, dir, -1)
	defer s.Close()
	if recs := s.TakeRecovered(); len(recs) != total {
		t.Fatalf("after 5 crash cycles: recovered %d, want %d", len(recs), total)
	}
}
