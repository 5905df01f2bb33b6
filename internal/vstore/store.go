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

	// keys is the latest seq of every key the store holds: what Has
	// answers and what compaction keeps.
	keys map[string]uint64

	recovered     []Record // warm-boot records, handed out once
	warmBoot      int
	closing       bool
	compactorDone sync.WaitGroup
}

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

	// The rule Open and walk (Since, compaction) share: log records at or
	// below the snapshot's watermark are the snapshot's (a crash can leave
	// the logs it covers on disk), and the rest ascend strictly, so the
	// last record seen for a key is its latest. Anything else is
	// corruption.
	var recs []Record
	s.keys = make(map[string]uint64)
	add := func(r Record) error {
		if n := len(recs); n > 0 && r.Seq <= recs[n-1].Seq {
			return fmt.Errorf("record seq %d follows seq %d", r.Seq, recs[n-1].Seq)
		}
		recs = append(recs, r)
		s.keys[r.Verdict.Domain] = r.Seq
		return nil
	}
	// A missing snapshot is an empty store. A short one is corruption: the
	// atomic cutover means a crash cannot tear it, and serving silently
	// from half a snapshot would be data loss.
	snapPath := filepath.Join(cfg.Dir, snapName)
	hdr, _, err := framelog.Replay(snapPath, snapMagic, snapHeaderSize, 0, -1, eachRecord(snapPath, func(r Record) error {
		s.snapCount++
		return add(r)
	}))
	switch {
	case err == nil:
		if count := binary.LittleEndian.Uint32(hdr[16:]); s.snapCount != int(count) {
			return nil, fmt.Errorf("vstore: %s: %d records, header says %d (truncated snapshot)", snapPath, s.snapCount, count)
		}
		s.snapSeq = binary.LittleEndian.Uint64(hdr[8:])
	case !os.IsNotExist(err):
		return nil, err
	}
	snapSeq, maxSeq := s.snapSeq, s.snapSeq

	logs, err := listLogs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i, path := range logs {
		l, err := s.openLog(path, 0, eachRecord(path, func(r Record) error {
			maxSeq = max(maxSeq, r.Seq)
			if r.Seq <= snapSeq {
				return nil
			}
			return add(r)
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

	live := recs[:0]
	for _, r := range recs {
		if s.keys[r.Verdict.Domain] == r.Seq {
			live = append(live, r)
		}
	}
	s.recovered, s.warmBoot = live, len(live)
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
func eachRecord(path string, fn func(Record) error) func(int64, []byte) error {
	return func(_ int64, payload []byte) error {
		r, err := decodeRecord(payload)
		if err == nil {
			err = fn(r)
		}
		if err != nil {
			return fmt.Errorf("vstore: %s: %w", path, err)
		}
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

// Has reports whether the store holds a verdict for key: recovered at
// Open or appended since, whether or not any cache still holds it.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.keys[key]
	return ok
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
	s.keys[v.Domain] = s.seq
	if s.cfg.CompactBytes > 0 && end > s.cfg.CompactBytes && !s.compacting {
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
