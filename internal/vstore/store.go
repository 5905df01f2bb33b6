package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"idnlab/internal/core"
	"idnlab/internal/framelog"
)

// Store is a durable, replication-ready warm store for one cache
// partition: a group-committed append log plus a compacted snapshot.
// Build with Open; Append/Sync/Since/Stats are safe for concurrent use.
type Store struct {
	cfg Config
	opt framelog.Options

	mu sync.Mutex

	// The active log. Every Append assigns seq+1 and enqueues exactly one
	// frame under mu, so the log's frame counters map onto sequence
	// numbers: the n-th frame appended since the log was opened carries
	// seq logStart+n.
	log      *framelog.Log
	logPath  string
	logStart uint64 // seq when the active log was opened
	oldLogs  []string

	seq      uint64 // last assigned sequence number
	appends  uint64
	commits  uint64 // commits and largest batch of the logs rotated out
	maxBatch int

	snapshots uint64
	snapSeq   uint64 // watermark of the current snapshot
	snapCount int

	compacting    bool
	compactErrors uint64
	encodeErrors  uint64
	walker        Walker

	recovered     []Record // warm-boot records, handed out once
	warmBoot      int
	closing       bool
	compactorDone sync.WaitGroup
}

// Walker supplies the compactor with the live cache contents: it calls
// emit once per entry without holding any lock across the full dump
// (serve.VerdictCache.Walk is the canonical implementation).
type Walker func(emit func(key string, v core.Verdict, seq uint64))

// Open opens (or creates) the store at cfg.Dir, recovers the snapshot
// and every log file (truncating torn tails), and starts the committer.
// TakeRecovered returns the warm-boot records exactly once.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("vstore: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, opt: framelog.Options{NoFsync: cfg.NoFsync}}

	// A crash mid-snapshot leaves only a temp file; the rename never
	// happened, so the old snapshot (if any) is still the truth.
	tmps, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	byKey := make(map[string]Record)
	snapRecs, snapSeq, err := loadSnapshot(filepath.Join(cfg.Dir, snapName))
	if err != nil {
		return nil, err
	}
	for _, r := range snapRecs {
		byKey[r.Verdict.Domain] = r
	}
	s.snapSeq, s.snapCount = snapSeq, len(snapRecs)
	maxSeq := snapSeq

	logs, err := listLogs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i, path := range logs {
		l, err := s.openLog(path, 0, eachRecord(path, func(r Record) {
			if prev, ok := byKey[r.Verdict.Domain]; !ok || r.Seq > prev.Seq {
				byKey[r.Verdict.Domain] = r
			}
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}))
		if err != nil {
			return nil, err
		}
		if base := binary.LittleEndian.Uint64(l.Header()[8:]); base > maxSeq {
			maxSeq = base
		}
		if i < len(logs)-1 {
			l.Close()
			s.oldLogs = append(s.oldLogs, path)
		} else {
			s.log, s.logPath = l, path
		}
	}
	if s.log == nil {
		s.logPath = filepath.Join(cfg.Dir, logName(maxSeq))
		if s.log, err = s.openLog(s.logPath, maxSeq, nil); err != nil {
			return nil, err
		}
	}
	s.seq, s.logStart = maxSeq, maxSeq

	s.recovered = make([]Record, 0, len(byKey))
	for _, r := range byKey {
		s.recovered = append(s.recovered, r)
	}
	sort.Slice(s.recovered, func(i, j int) bool { return s.recovered[i].Seq < s.recovered[j].Seq })
	s.warmBoot = len(s.recovered)
	return s, nil
}

const snapName = "snapshot.vsnap"

// logName formats an active-log filename; the hex baseSeq keeps
// lexicographic order equal to sequence order.
func logName(baseSeq uint64) string { return fmt.Sprintf("wlog-%016x.vlog", baseSeq) }

// listLogs returns the store's log files sorted by base sequence.
func listLogs(dir string) ([]string, error) {
	all, err := filepath.Glob(filepath.Join(dir, "wlog-*.vlog"))
	if err != nil {
		return nil, err
	}
	sort.Strings(all)
	return all, nil
}

// openLog opens the log file at path, creating it with baseSeq (the
// last sequence number preceding the file) in its header if it does not
// exist; fn sees the payload of every frame already in it.
func (s *Store) openLog(path string, baseSeq uint64, fn func(int64, []byte) error) (*framelog.Log, error) {
	hdr := make([]byte, logHeaderSize)
	copy(hdr, logMagic)
	binary.LittleEndian.PutUint64(hdr[8:], baseSeq)
	return framelog.Open(path, hdr, s.opt, fn)
}

// eachRecord adapts fn to a framelog payload callback. A payload that
// passes its CRC but is not a record is corruption beyond a torn tail:
// the error names the file, and the caller refuses to serve from it
// rather than guess.
func eachRecord(path string, fn func(Record)) func(int64, []byte) error {
	return func(_ int64, payload []byte) error {
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("vstore: %s: %w", path, err)
		}
		fn(r)
		return nil
	}
}

// TakeRecovered returns the warm-boot records (latest verdict per key,
// ascending sequence order) and releases the memory. Second call
// returns nil.
func (s *Store) TakeRecovered() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recovered
	s.recovered = nil
	return r
}

// SetWalker wires the compactor's source of truth — the live cache.
// Compaction stays disabled until a walker is attached.
func (s *Store) SetWalker(w Walker) {
	s.mu.Lock()
	s.walker = w
	s.mu.Unlock()
}

// Append assigns the next sequence number to v and enqueues the frame
// for the next group commit. It returns the assigned sequence (0 if the
// store is dead or closing) without waiting for durability — Sync() is
// the barrier. Encoding failures (non-finite floats cannot occur in
// real verdicts) are counted, not fatal. An append that takes the
// active log past CompactBytes kicks the compactor.
func (s *Store) Append(v core.Verdict) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return 0
	}
	payload, err := appendRecord(nil, s.seq+1, v)
	if err != nil {
		s.encodeErrors++
		return 0
	}
	end, err := s.log.Append(payload)
	if err != nil {
		if errors.Is(err, framelog.ErrFrameSize) {
			s.encodeErrors++
		}
		return 0
	}
	s.seq++
	s.appends++
	if s.cfg.CompactBytes > 0 && end > s.cfg.CompactBytes && s.walker != nil && !s.compacting {
		s.compacting = true
		s.compactorDone.Add(1)
		go s.compact()
	}
	return s.seq
}

// Sync blocks until every record appended before the call is on stable
// storage (or the store has failed). Records appended to a log that has
// since been rotated out were made durable by the rotation.
func (s *Store) Sync() error {
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	return l.Sync()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	st := Stats{
		Loaded:          true,
		Dir:             s.cfg.Dir,
		Seq:             s.seq,
		DurableSeq:      s.logStart + ls.Durable,
		Appends:         s.appends,
		Commits:         s.commits + ls.Commits,
		MaxBatch:        max(s.maxBatch, ls.MaxBatch),
		LogBytes:        ls.Size,
		WarmBootEntries: s.warmBoot,
		Snapshots:       s.snapshots,
		SnapshotSeq:     s.snapSeq,
		SnapshotEntries: s.snapCount,
		CompactErrors:   s.compactErrors,
		EncodeErrors:    s.encodeErrors,
	}
	if err := s.log.Err(); err != nil {
		st.LastError = err.Error()
	}
	return st
}

// Close waits out any in-flight compaction, then drains pending frames
// and closes the active log.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.compactorDone.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
