package vstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"idnlab/internal/core"
)

// testVerdict builds a deterministic verdict for key index i, version v.
// The Unicode field doubles as a version marker so tests can assert
// "latest write wins" without comparing whole structs.
func testVerdict(i, v int) core.Verdict {
	return core.Verdict{
		Domain:  fmt.Sprintf("xn--test%04d.example", i),
		Unicode: fmt.Sprintf("tëst%04d.example/v%d", i, v),
		IDN:     true,
	}
}

func openTest(t *testing.T, dir string, compact int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, CompactBytes: compact, NoFsync: true})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// testWalker mimics the live verdict cache: a map updated on every
// append, dumped through the Walker hook at compaction.
type testWalker struct {
	mu sync.Mutex
	m  map[string]Record
}

func newTestWalker() *testWalker { return &testWalker{m: make(map[string]Record)} }

func (w *testWalker) put(v core.Verdict, seq uint64) {
	w.mu.Lock()
	w.m[v.Domain] = Record{Seq: seq, Verdict: v}
	w.mu.Unlock()
}

func (w *testWalker) drop(domain string) {
	w.mu.Lock()
	delete(w.m, domain)
	w.mu.Unlock()
}

func (w *testWalker) walk(emit func(key string, v core.Verdict, seq uint64)) {
	w.mu.Lock()
	recs := make([]Record, 0, len(w.m))
	for _, r := range w.m {
		recs = append(recs, r)
	}
	w.mu.Unlock()
	for _, r := range recs {
		emit(r.Verdict.Domain, r.Verdict, r.Seq)
	}
}

func TestAppendSyncReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	const n = 50
	for i := 0; i < n; i++ {
		if seq := s.Append(testVerdict(i, 1)); seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.Stats().DurableSeq; got != n {
		t.Fatalf("DurableSeq %d, want %d", got, n)
	}
	st := s.Stats()
	if st.Appends != n || st.Commits == 0 {
		t.Fatalf("stats: appends=%d commits=%d", st.Appends, st.Commits)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, -1)
	defer r.Close()
	recs := r.TakeRecovered()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("recovered records not ascending at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if r.TakeRecovered() != nil {
		t.Fatal("second TakeRecovered must return nil")
	}
	// Sequence space continues where the previous incarnation stopped.
	if seq := r.Append(testVerdict(0, 2)); seq != n+1 {
		t.Fatalf("post-reopen Append: seq %d, want %d", seq, n+1)
	}
}

func TestLatestSeqWinsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	s.Append(testVerdict(7, 1))
	s.Append(testVerdict(8, 1))
	s.Append(testVerdict(7, 2)) // rewrite key 7
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, -1)
	defer r.Close()
	recs := r.TakeRecovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (one per key)", len(recs))
	}
	byKey := make(map[string]Record)
	for _, rec := range recs {
		byKey[rec.Verdict.Domain] = rec
	}
	k7 := byKey[testVerdict(7, 0).Domain]
	if k7.Seq != 3 || k7.Verdict.Unicode != testVerdict(7, 2).Unicode {
		t.Fatalf("key 7: got seq %d unicode %q, want the seq-3 rewrite", k7.Seq, k7.Verdict.Unicode)
	}
}

func TestAppendAfterCloseReturnsZero(t *testing.T) {
	s := openTest(t, t.TempDir(), -1)
	s.Append(testVerdict(0, 1))
	s.Close()
	if seq := s.Append(testVerdict(1, 1)); seq != 0 {
		t.Fatalf("Append after Close: seq %d, want 0", seq)
	}
}

func TestCompactionCutoverAndSince(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1) // manual compaction only
	w := newTestWalker()
	s.SetWalker(w.walk)

	const n = 40
	for i := 0; i < n; i++ {
		v := testVerdict(i, 1)
		w.put(v, s.Append(v))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.Snapshots != 1 || st.SnapshotSeq != n || st.SnapshotEntries != n {
		t.Fatalf("after compact: %+v", st)
	}
	// The covered log is gone; only the fresh active log remains.
	logs, _ := listLogs(dir)
	if len(logs) != 1 {
		t.Fatalf("%d log files after compaction, want 1: %v", len(logs), logs)
	}

	// Records appended after the cutover land in the new log.
	for i := n; i < 2*n; i++ {
		v := testVerdict(i, 1)
		w.put(v, s.Append(v))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Since must stitch snapshot + active log into one ascending stream.
	recs, durable, more, err := s.Since(0, 0)
	if err != nil {
		t.Fatalf("Since: %v", err)
	}
	if durable != 2*n || more || len(recs) != 2*n {
		t.Fatalf("Since(0): %d recs, durable %d, more %v", len(recs), durable, more)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("Since record %d has seq %d", i, r.Seq)
		}
	}

	// Paging: walk the stream in chunks of 7 through the cursor protocol.
	var paged []Record
	var after uint64
	for {
		recs, durable, more, err := s.Since(after, 7)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, recs...)
		if !more {
			if durable != 2*n {
				t.Fatalf("final page durable %d, want %d", durable, 2*n)
			}
			break
		}
		after = recs[len(recs)-1].Seq
	}
	if len(paged) != 2*n {
		t.Fatalf("paged %d records, want %d", len(paged), 2*n)
	}

	// A caught-up cursor gets an empty page.
	recs, _, more, err = s.Since(2*n, 0)
	if err != nil || len(recs) != 0 || more {
		t.Fatalf("caught-up Since: %d recs, more %v, err %v", len(recs), more, err)
	}
	s.Close()
}

func TestEvictedKeysDropAtCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	w := newTestWalker()
	s.SetWalker(w.walk)
	for i := 0; i < 10; i++ {
		v := testVerdict(i, 1)
		w.put(v, s.Append(v))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	evicted := testVerdict(3, 0).Domain
	w.drop(evicted) // cache evicted key 3 before the snapshot
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, -1)
	defer r.Close()
	for _, rec := range r.TakeRecovered() {
		if rec.Verdict.Domain == evicted {
			t.Fatalf("evicted key %s survived compaction", evicted)
		}
	}
	if st := r.Stats(); st.WarmBootEntries != 9 {
		t.Fatalf("warm boot %d entries, want 9", st.WarmBootEntries)
	}
}

func TestSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4096) // tiny threshold: a few dozen records trip it
	w := newTestWalker()
	s.SetWalker(w.walk)
	for i := 0; i < 200; i++ {
		v := testVerdict(i, 1)
		w.put(v, s.Append(v))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered compaction never ran: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, snapName)); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot file missing after triggered compaction: %v", err)
	}
}

func TestConcurrentAppendersAndSince(t *testing.T) {
	s := openTest(t, t.TempDir(), -1)
	defer s.Close()
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if seq := s.Append(testVerdict(g*per+i, 1)); seq == 0 {
					t.Errorf("goroutine %d: Append returned 0", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, durable, _, err := s.Since(0, goroutines*per)
	if err != nil {
		t.Fatal(err)
	}
	if durable != goroutines*per || len(recs) != goroutines*per {
		t.Fatalf("durable %d, %d records; want %d", durable, len(recs), goroutines*per)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestConcurrentAppendersAcrossCompaction forces a compaction — and with
// it a log rotation — while appenders run: no sequence number may be
// lost or doubled across the file boundary, Since must stitch snapshot
// and logs into the full stream, and a reopen must recover every key.
func TestConcurrentAppendersAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	w := newTestWalker()
	s.SetWalker(w.walk)
	const goroutines, per = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Goroutine 0 compacts halfway through its own run, so the
				// rotation lands mid-run however the others are scheduled.
				if g == 0 && i == per/2 {
					if err := s.Compact(); err != nil {
						t.Errorf("Compact mid-run: %v", err)
						return
					}
				}
				// Append and the walker's map move together, so the dump sees
				// every record at or below the rotation watermark. (The live
				// cache has a window here: a verdict is appended before it is
				// stored, and a walk in between leaves it to the next
				// snapshot.)
				v := testVerdict(g*per+i, 1)
				w.mu.Lock()
				seq := s.Append(v)
				w.m[v.Domain] = Record{Seq: seq, Verdict: v}
				w.mu.Unlock()
				if seq == 0 {
					t.Errorf("goroutine %d: Append returned 0", g)
					return
				}
				if i%16 == 0 {
					if err := s.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Snapshots != 1 || st.SnapshotSeq == 0 || st.SnapshotSeq == goroutines*per {
		t.Fatalf("compaction did not land mid-run: %+v", st)
	}
	if st.DurableSeq != goroutines*per || st.Commits == 0 {
		t.Fatalf("after rotation: %+v", st)
	}
	recs, durable, _, err := s.Since(0, goroutines*per)
	if err != nil {
		t.Fatal(err)
	}
	if durable != goroutines*per || len(recs) != goroutines*per {
		t.Fatalf("durable %d, %d records; want %d", durable, len(recs), goroutines*per)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("Since record %d has seq %d: lost or doubled across the rotation", i, r.Seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, -1)
	defer r.Close()
	if got := len(r.TakeRecovered()); got != goroutines*per {
		t.Fatalf("recovered %d keys after reopen, want %d", got, goroutines*per)
	}
}

// TestCompactTwiceWithoutAppends: a second compaction with nothing new
// appended has no log to rotate and must leave the active log in place.
func TestCompactTwiceWithoutAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	w := newTestWalker()
	s.SetWalker(w.walk)
	for i := 0; i < 5; i++ {
		v := testVerdict(i, 1)
		w.put(v, s.Append(v))
	}
	for round := 0; round < 2; round++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	v := testVerdict(5, 1)
	w.put(v, s.Append(v))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTest(t, dir, -1)
	defer r.Close()
	if got := len(r.TakeRecovered()); got != 6 {
		t.Fatalf("recovered %d records, want 6 (5 in the snapshot, 1 in the log)", got)
	}
}
