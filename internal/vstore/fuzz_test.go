package vstore

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedFiles writes a small real store — a compacted snapshot plus a
// log suffix — and returns the bytes of both files.
func fuzzSeedFiles(f *testing.F) (wlog, snap []byte) {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, CompactBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Append(testVerdict(i, 0))
	}
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	for i := 2; i < 6; i++ {
		s.Append(testVerdict(i, 1))
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	logs, err := listLogs(dir)
	if err != nil || len(logs) == 0 {
		f.Fatalf("seed store has no log (err %v)", err)
	}
	if wlog, err = os.ReadFile(logs[len(logs)-1]); err != nil {
		f.Fatal(err)
	}
	if snap, err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
		f.Fatal(err)
	}
	return wlog, snap
}

// FuzzOpen hands Open arbitrary bytes as the warm log and/or the
// snapshot. Open must never panic. It may refuse the directory; when it
// accepts it, every recovered record must be a whole record (it encodes
// and decodes back to the same key and sequence number, in ascending
// order, none past the store's sequence), and the store must be usable:
// a fresh append commits and survives a compaction and a reopen. The
// compaction may refuse files no store writes (frames out of seq
// order); it must not lose the fresh verdict either way.
func FuzzOpen(f *testing.F) {
	wlog, snap := fuzzSeedFiles(f)
	flip := func(b []byte, at int) []byte {
		c := append([]byte(nil), b...)
		c[at] ^= 0x40
		return c
	}
	f.Add(wlog, snap)
	f.Add(wlog, []byte(nil))
	f.Add([]byte(nil), snap)
	f.Add(wlog[:len(wlog)-3], snap)                    // torn log tail
	f.Add(wlog, snap[:len(snap)-3])                    // truncated snapshot
	f.Add(flip(wlog, len(wlog)/2), snap)               // CRC mismatch mid-log
	f.Add(wlog, flip(snap, len(snap)/2))               // CRC mismatch mid-snapshot
	f.Add(flip(wlog, 2), flip(snap, 2))                // wrong magics
	f.Add(wlog[:logHeaderSize-1], snap[:5])            // short headers
	f.Add(flip(wlog, 9), flip(snap, 17))               // header fields: base seq, count
	f.Add([]byte(logMagic), []byte(snapMagic))         // magic only
	f.Add(append(wlog, wlog[logHeaderSize:]...), snap) // duplicated frames

	f.Fuzz(func(t *testing.T, wlog, snap []byte) {
		dir := t.TempDir()
		if len(wlog) > 0 {
			if err := os.WriteFile(filepath.Join(dir, logName(0)), wlog, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{Dir: dir, CompactBytes: -1}
		s, err := Open(cfg)
		if err != nil {
			return // refusing a corrupt directory is fine; panicking is not
		}
		recs := s.TakeRecovered()
		var last uint64
		for i, r := range recs {
			if r.Seq > s.Stats().Seq || (i > 0 && r.Seq < last) {
				t.Fatalf("record %d: seq %d out of order (previous %d, store seq %d)", i, r.Seq, last, s.Stats().Seq)
			}
			last = r.Seq
			payload, err := appendRecord(nil, r.Seq, r.Verdict)
			if err != nil {
				t.Fatalf("recovered record %d does not encode: %v", i, err)
			}
			back, err := decodeRecord(payload)
			if err != nil || back.Seq != r.Seq || back.Verdict.Domain != r.Verdict.Domain {
				t.Fatalf("recovered record %d does not decode back: %+v vs %+v (err %v)", i, back, r, err)
			}
		}

		if s.Stats().Seq == math.MaxUint64 {
			s.Close()
			return // a forged header or record spent the whole sequence space
		}
		fresh := testVerdict(9999, 0)
		seq := s.Append(fresh)
		if seq <= last {
			t.Fatalf("append after recovery got seq %d, not past recovered seq %d", seq, last)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
		s.Compact()
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		s, err = Open(cfg)
		if err != nil {
			t.Fatalf("a store that opened once does not reopen: %v", err)
		}
		defer s.Close()
		found := false
		for _, r := range s.TakeRecovered() {
			found = found || (r.Seq == seq && r.Verdict.Domain == fresh.Domain)
		}
		if !found {
			t.Fatalf("verdict appended at seq %d after recovery is gone on reopen", seq)
		}
	})
}
