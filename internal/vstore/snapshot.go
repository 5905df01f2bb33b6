package vstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"idnlab/internal/framelog"
)

// Snapshot compaction. When the active log outgrows CompactBytes the
// committer kicks compact(), which:
//
//  1. rotates the active log (new file, baseSeq = current seq) so the
//     append path never stalls behind the merge;
//  2. merges the current snapshot and the logs the rotation closed with
//     the rule Open applies: the key index (Store.keys, built by Open
//     and extended by Append) names each key's latest seq, and the frame
//     carrying it is copied raw — nothing is decoded;
//  3. writes snapshot.vsnap.tmp, fsyncs, and renames it over the old
//     snapshot (atomic cutover: a crash at any byte leaves either the
//     old complete snapshot or the new complete one);
//  4. deletes the log files the snapshot now covers.
//
// The store reads only its own files, so the snapshot holds the latest
// verdict of every key ever appended: disk is O(distinct keys +
// CompactBytes), whatever any cache still holds.

// compact runs one size-triggered compaction cycle on its own goroutine.
func (s *Store) compact() {
	defer s.compactorDone.Done()
	s.runCompaction()
}

// Compact forces a compaction cycle synchronously (tests and benches;
// production relies on the size trigger).
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.compacting || s.closing || s.log.Err() != nil {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	s.mu.Unlock()
	return s.runCompaction()
}

// runCompaction runs one cycle for whoever set s.compacting.
func (s *Store) runCompaction() error {
	err := s.compactOnce()
	s.mu.Lock()
	if err != nil {
		s.compactErrors++
	}
	s.compacting = false
	s.mu.Unlock()
	return err
}

func (s *Store) compactOnce() error {
	// Rotate: close the active log — which commits and fsyncs whatever is
	// pending, so the old file is complete — and open the next one.
	// Appenders wait on mu for that one commit and one pass over the key
	// index; the merge below runs with the new log already taking
	// appends. An active log no record has reached needs no successor
	// (which would have the same name), and with no closed log there is
	// nothing to merge.
	s.mu.Lock()
	if s.closing || s.log.Err() != nil {
		s.mu.Unlock()
		return nil
	}
	watermark := s.seq
	if next := filepath.Join(s.cfg.Dir, logName(s.seq)); next != s.logPath {
		if err := s.rotateLocked(next); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	covered := append([]string(nil), s.oldLogs...)
	if len(covered) == 0 {
		s.mu.Unlock()
		return nil
	}
	live := make([]uint64, 0, len(s.keys))
	for _, seq := range s.keys {
		if seq <= watermark {
			live = append(live, seq)
		}
	}
	s.mu.Unlock()

	slices.Sort(live)
	if err := s.writeSnapshot(live, watermark, covered); err != nil {
		return err
	}

	s.mu.Lock()
	s.snapshots++
	s.snapSeq, s.snapCount = watermark, len(live)
	// Drop exactly the files the snapshot covers; a concurrent rotation
	// cannot have added to oldLogs (compactions are serialized).
	s.oldLogs = s.oldLogs[len(covered):]
	s.mu.Unlock()
	for _, p := range covered {
		os.Remove(p)
	}
	return nil
}

// rotateLocked closes the active log and opens its successor at path,
// whose header records the current sequence number. If the close fails
// the dead log stays active and keeps refusing appends.
func (s *Store) rotateLocked(path string) error {
	if err := s.log.Close(); err != nil {
		return err
	}
	next, err := s.openLog(path, s.seq, nil)
	if err != nil {
		return err
	}
	old := s.log.Stats()
	s.commits += old.Commits
	s.maxBatch = max(s.maxBatch, old.MaxBatch)
	s.oldLogs = append(s.oldLogs, s.logPath)
	s.log, s.logPath, s.logStart = next, path, s.seq
	return nil
}

// writeSnapshot atomically replaces the snapshot with the frames of the
// live seqs (ascending), copied from the current snapshot and the
// covered logs in one pass — their frames ascend too (see Open). A live
// seq the pass does not meet is an error, and the old snapshot stays.
func (s *Store) writeSnapshot(live []uint64, watermark uint64, covered []string) error {
	path := filepath.Join(s.cfg.Dir, snapName)
	return framelog.ReplaceFile(path, s.opt, func(w io.Writer) error {
		buf := make([]byte, snapHeaderSize, 1<<20)
		copy(buf, snapMagic)
		binary.LittleEndian.PutUint64(buf[8:], watermark)
		binary.LittleEndian.PutUint32(buf[16:], uint32(len(live)))
		keep := func(_ int64, payload []byte) error {
			if len(live) == 0 || len(payload) < 8 || binary.LittleEndian.Uint64(payload) != live[0] {
				return nil
			}
			live = live[1:]
			buf = framelog.AppendFrame(buf, payload)
			if len(buf) < 1<<20 {
				return nil
			}
			_, err := w.Write(buf)
			buf = buf[:0]
			return err
		}
		if _, _, err := framelog.Replay(path, snapMagic, snapHeaderSize, 0, -1, keep); err != nil && !os.IsNotExist(err) {
			return err
		}
		for _, p := range covered {
			if _, _, err := framelog.Replay(p, logMagic, logHeaderSize, 0, -1, keep); err != nil {
				return err
			}
		}
		if len(live) > 0 {
			return fmt.Errorf("vstore: compaction: seq %d is in none of the files it merges", live[0])
		}
		_, err := w.Write(buf)
		return err
	})
}

// loadSnapshot hands fn the records of a snapshot file and returns its
// watermark and record count. A missing file is an empty store; anything
// structurally wrong is an error — the atomic cutover means a torn
// snapshot cannot be left by a crash, only by real corruption, and
// serving silently from half a snapshot would be data loss.
func loadSnapshot(path string, fn func(Record) error) (uint64, int, error) {
	n := 0
	hdr, err := scanRecords(path, snapMagic, snapHeaderSize, -1, func(r Record) error {
		n++
		return fn(r)
	})
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if count := binary.LittleEndian.Uint32(hdr[16:]); n != int(count) {
		return 0, 0, fmt.Errorf("vstore: %s: %d records, header says %d (truncated snapshot)", path, n, count)
	}
	return binary.LittleEndian.Uint64(hdr[8:]), n, nil
}

// scanRecords reads the records of a snapshot or log file, bounded to
// limit bytes when limit >= 0 (the active log's durable size — bytes
// past it may be a commit in flight), and returns the file's header.
// Torn tails stop the scan cleanly.
func scanRecords(path, magic string, headerSize int, limit int64, fn func(Record) error) ([]byte, error) {
	hdr, _, err := framelog.Replay(path, magic, headerSize, 0, limit, eachRecord(path, fn))
	return hdr, err
}

// Since returns up to max records with sequence numbers in
// (after, durable], ascending — the anti-entropy suffix a rejoining
// peer streams to converge. durable is the store's current durable
// watermark: when more is false the caller may advance its cursor to it
// directly. Only durable bytes of the active log are scanned, so a
// record is never handed out before it would survive a crash. The files
// are read in the order Open reads them and under its rule, so records
// come out ascending and each sequence number once.
func (s *Store) Since(after uint64, max int) (recs []Record, durable uint64, more bool, err error) {
	if max <= 0 {
		max = 1024
	}
	s.mu.Lock()
	active := s.log.Stats()
	durable = s.logStart + active.Durable
	snapSeq := s.snapSeq
	activePath := s.logPath
	old := append([]string(nil), s.oldLogs...)
	s.mu.Unlock()
	if after >= durable {
		return nil, durable, false, nil
	}

	lo := after // records at or below lo are not streamed
	collect := func(r Record) error {
		if r.Seq > lo && r.Seq <= durable {
			recs = append(recs, r)
		}
		return nil
	}
	if snapSeq > after {
		watermark, _, err := loadSnapshot(filepath.Join(s.cfg.Dir, snapName), collect)
		if err != nil {
			return nil, durable, false, err
		}
		lo = watermark
	}
	for _, p := range old {
		if _, err := scanRecords(p, logMagic, logHeaderSize, -1, collect); err != nil {
			return nil, durable, false, err
		}
	}
	if _, err := scanRecords(activePath, logMagic, logHeaderSize, active.Size, collect); err != nil {
		return nil, durable, false, err
	}
	if len(recs) > max {
		recs, more = recs[:max], true
	}
	return recs, durable, more, nil
}
