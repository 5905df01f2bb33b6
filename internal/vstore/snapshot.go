package vstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"idnlab/internal/core"
	"idnlab/internal/framelog"
)

// Snapshot compaction. When the active log outgrows CompactBytes the
// committer kicks compact(), which:
//
//  1. rotates the active log (new file, baseSeq = current seq) so the
//     append path never stalls behind the dump;
//  2. walks the live cache through the attached Walker — one shard
//     locked at a time, never the whole cache — keeping records at or
//     below the rotation watermark;
//  3. writes snapshot.vsnap.tmp, fsyncs, and renames it over the old
//     snapshot (atomic cutover: a crash at any byte leaves either the
//     old complete snapshot or the new complete one);
//  4. deletes the log files the snapshot now covers.
//
// Evicted keys fall out at compaction — the store is a warm-boot image
// of the cache, not an unbounded history — which is what bounds disk to
// O(cache capacity + CompactBytes).

// compact runs one size-triggered compaction cycle on its own goroutine.
func (s *Store) compact() {
	defer s.compactorDone.Done()
	s.runCompaction()
}

// Compact forces a compaction cycle synchronously (tests and benches;
// production relies on the size trigger). It is a no-op without a
// walker.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.walker == nil || s.compacting || s.closing || s.log.Err() != nil {
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
	// Appenders wait on mu for that one commit; the dump below runs with
	// the new log already taking appends. An active log no record has
	// reached needs no successor (which would have the same name).
	s.mu.Lock()
	if s.closing || s.log.Err() != nil {
		s.mu.Unlock()
		return nil
	}
	watermark := s.seq
	walker := s.walker
	if next := filepath.Join(s.cfg.Dir, logName(s.seq)); next != s.logPath {
		if err := s.rotateLocked(next); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	covered := append([]string(nil), s.oldLogs...)
	s.mu.Unlock()

	// Dump the live cache. Records above the watermark belong to the new
	// log; records with seq 0 never hit this store (ingested while the
	// log was dead) and cannot be ordered, so they stay log-only.
	var recs []Record
	walker(func(key string, v core.Verdict, seq uint64) {
		if seq == 0 || seq > watermark {
			return
		}
		recs = append(recs, Record{Seq: seq, Verdict: v})
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })

	if err := s.writeSnapshot(recs, watermark); err != nil {
		return err
	}

	s.mu.Lock()
	s.snapshots++
	s.snapSeq, s.snapCount = watermark, len(recs)
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

// writeSnapshot atomically replaces the snapshot file with recs.
func (s *Store) writeSnapshot(recs []Record, watermark uint64) error {
	return framelog.ReplaceFile(filepath.Join(s.cfg.Dir, snapName), s.opt, func(w io.Writer) error {
		buf := make([]byte, snapHeaderSize, 1<<20)
		copy(buf, snapMagic)
		binary.LittleEndian.PutUint64(buf[8:], watermark)
		binary.LittleEndian.PutUint32(buf[16:], uint32(len(recs)))
		var payload []byte
		for i := range recs {
			var err error
			if payload, err = appendRecord(payload[:0], recs[i].Seq, recs[i].Verdict); err != nil {
				return err
			}
			buf = framelog.AppendFrame(buf, payload)
			if len(buf) >= 1<<20 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		_, err := w.Write(buf)
		return err
	})
}

// loadSnapshot reads a snapshot file. A missing file is an empty store;
// anything structurally wrong is an error — the atomic cutover means a
// torn snapshot cannot be left by a crash, only by real corruption,
// and serving silently from half a snapshot would be data loss.
func loadSnapshot(path string) ([]Record, uint64, error) {
	var recs []Record
	hdr, err := scanRecords(path, snapMagic, snapHeaderSize, -1, func(r Record) { recs = append(recs, r) })
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	watermark := binary.LittleEndian.Uint64(hdr[8:])
	count := binary.LittleEndian.Uint32(hdr[16:])
	if len(recs) != int(count) {
		return nil, 0, fmt.Errorf("vstore: %s: %d records, header says %d (truncated snapshot)", path, len(recs), count)
	}
	return recs, watermark, nil
}

// scanRecords reads the records of a snapshot or log file, bounded to
// limit bytes when limit >= 0 (the active log's durable size — bytes
// past it may be a commit in flight), and returns the file's header.
// Torn tails stop the scan cleanly.
func scanRecords(path, magic string, headerSize int, limit int64, fn func(Record)) ([]byte, error) {
	hdr, _, err := framelog.Replay(path, magic, headerSize, 0, limit, eachRecord(path, fn))
	return hdr, err
}

// Since returns up to max records with sequence numbers in
// (after, durable], ascending — the anti-entropy suffix a rejoining
// peer streams to converge. durable is the store's current durable
// watermark: when more is false the caller may advance its cursor to it
// directly. Only durable bytes of the active log are scanned, so a
// record is never handed out before it would survive a crash.
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

	collect := func(r Record) {
		if r.Seq > after && r.Seq <= durable {
			recs = append(recs, r)
		}
	}
	if snapSeq > after {
		snapRecs, _, err := loadSnapshot(filepath.Join(s.cfg.Dir, snapName))
		if err != nil {
			return nil, durable, false, err
		}
		for _, r := range snapRecs {
			collect(r)
		}
	}
	for _, p := range old {
		if _, err := scanRecords(p, logMagic, logHeaderSize, -1, collect); err != nil {
			return nil, durable, false, err
		}
	}
	if _, err := scanRecords(activePath, logMagic, logHeaderSize, active.Size, collect); err != nil {
		return nil, durable, false, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	if len(recs) > max {
		recs, more = recs[:max], true
	}
	return recs, durable, more, nil
}
