package vstore

import (
	"encoding/binary"
	"errors"
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
//  2. walks the current snapshot and the logs the rotation closed under
//     the rule Open applies (walk): the key index (Store.keys, built by
//     Open and extended by Append) names each key's latest seq, and the
//     frame carrying it is copied raw — nothing is decoded;
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
// live seqs (ascending) that the walk of the current snapshot and the
// covered logs meets. A live seq it misses is an error, and the old
// snapshot stays.
func (s *Store) writeSnapshot(live []uint64, watermark uint64, covered []string) error {
	return framelog.ReplaceFile(filepath.Join(s.cfg.Dir, snapName), func(w io.Writer) error {
		buf := make([]byte, snapHeaderSize, 1<<20)
		copy(buf, snapMagic)
		binary.LittleEndian.PutUint64(buf[8:], watermark)
		binary.LittleEndian.PutUint32(buf[16:], uint32(len(live)))
		err := s.walk(true, covered, -1, func(seq uint64, payload []byte) error {
			if len(live) == 0 || seq != live[0] {
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
		})
		if err != nil {
			return err
		}
		if len(live) > 0 {
			return fmt.Errorf("vstore: compaction: seq %d is in none of the files it merges", live[0])
		}
		_, err = w.Write(buf)
		return err
	})
}

// errStop is what a walk callback returns to end the walk early.
var errStop = errors.New("vstore: walk stopped")

// walk is the one reader of the store's files after Open. It hands fn
// each record's raw payload (valid during the call) and seq, its first 8
// bytes, ascending as Open reads them: the snapshot's records if snap,
// then log records above its watermark and the last seq handed out. The
// last of logs is read up to limit bytes (< 0: all of it), the active
// log's durable size. fn's error ends the walk and is returned.
func (s *Store) walk(snap bool, logs []string, limit int64, fn func(seq uint64, payload []byte) error) error {
	var lo uint64
	visit := func(_ int64, payload []byte) error {
		if len(payload) < 9 {
			return fmt.Errorf("vstore: record payload %d bytes, want >= 9", len(payload))
		}
		seq := binary.LittleEndian.Uint64(payload)
		if seq <= lo {
			return nil
		}
		lo = seq
		return fn(seq, payload)
	}
	if snap {
		hdr, _, err := framelog.Replay(filepath.Join(s.cfg.Dir, snapName), snapMagic, snapHeaderSize, 0, -1, visit)
		if err == nil {
			lo = max(lo, binary.LittleEndian.Uint64(hdr[8:]))
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	for i, p := range logs {
		lim := int64(-1)
		if i == len(logs)-1 {
			lim = limit
		}
		if _, _, err := framelog.Replay(p, logMagic, logHeaderSize, 0, lim, visit); err != nil {
			return err
		}
	}
	return nil
}

// Since appends to dst the frames of up to max (>= 1) records with
// sequence numbers in (after, durable], ascending and byte for byte as
// the store's files hold them: the anti-entropy suffix a rejoining peer
// streams. When more is false the caller may advance its cursor to
// durable directly. Only durable bytes are read, so no record is handed
// out before it would survive a crash; no verdict is decoded, and the
// walk stops at the first record past the page.
func (s *Store) Since(dst []byte, after uint64, max int) (frames []byte, durable uint64, more bool, err error) {
	s.mu.Lock()
	active := s.log.Stats()
	durable = s.logStart + active.Durable
	snap := s.snapSeq > after // a snapshot at or below after holds nothing to stream
	logs := append(append([]string(nil), s.oldLogs...), s.logPath)
	s.mu.Unlock()
	if after >= durable {
		return dst, durable, false, nil
	}
	err = s.walk(snap, logs, active.Size, func(seq uint64, payload []byte) error {
		if seq <= after {
			return nil
		}
		if more = max == 0; more {
			return errStop
		}
		max--
		dst = framelog.AppendFrame(dst, payload)
		return nil
	})
	if errors.Is(err, errStop) {
		err = nil
	}
	return dst, durable, more, err
}
