package vstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// since is Store.Since with its page decoded the way a peer decodes it.
func since(s *Store, after uint64, max int) ([]Record, uint64, bool, error) {
	frames, durable, more, err := s.Since(nil, after, max)
	if err != nil {
		return nil, durable, more, err
	}
	recs, err := DecodeFrames(frames)
	return recs, durable, more, err
}

// TestDecodeRecordRefusals pins what a record payload may not be: too
// short for a seq, a verdict that does not decode (cut short, a field of
// the wrong type, bytes after the object, malformed JSON) or a response
// carrying an error. A payload appendRecord wrote decodes back.
func TestDecodeRecordRefusals(t *testing.T) {
	v := testVerdict(7, 2)
	good, err := appendRecord(nil, 42, v)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := decodeRecord(good); err != nil || r.Seq != 42 || r.Verdict.Domain != v.Domain || r.Verdict.Unicode != v.Unicode {
		t.Fatalf("decodeRecord(appendRecord(42, v)) = %+v, %v", r, err)
	}
	if _, err := decodeRecord(good[:8]); err == nil {
		t.Error("accepted a payload with a seq and no verdict")
	}
	seq := binary.LittleEndian.AppendUint64(nil, 42)
	for _, verdict := range []string{
		``, `   `, `true`, `42`, `"str"`, `[]`,
		`{`, `{"domain"}`, `{"domain":}`, `{"domain":"a"`,
		`{"domain":"a"} trailing`, `{"domain":"a"}{}`,
		`{"idn":1}`, `{"idn":"true"}`, `{"domain":42}`, `{"homograph":[]}`,
		`{"statistical":{"score":01}}`, `{"statistical":{"score":1e999}}`,
		"{\"domain\":\"raw\x01control\"}", `{"domain":"bad \x escape"}`,
		strings.Repeat(`{"future":`, 10001) + `1` + strings.Repeat(`}`, 10001),
		`{"input":"bad..domain","error":"invalid domain"}`,
	} {
		if r, err := decodeRecord(append(seq[:8:8], verdict...)); err == nil {
			t.Errorf("accepted verdict %.40q as %+v", verdict, r)
		}
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

	const n = 40
	for i := 0; i < n; i++ {
		s.Append(testVerdict(i, 1))
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
		s.Append(testVerdict(i, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Since must stitch snapshot + active log into one ascending stream.
	recs, durable, more, err := since(s, 0, 2*n)
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
		recs, durable, more, err := since(s, after, 7)
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
	recs, _, more, err = since(s, 2*n, 1)
	if err != nil || len(recs) != 0 || more {
		t.Fatalf("caught-up Since: %d recs, more %v, err %v", len(recs), more, err)
	}
	s.Close()
}

func TestSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4096) // tiny threshold: a few dozen records trip it
	for i := 0; i < 200; i++ {
		s.Append(testVerdict(i, 1))
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

// TestSinceAfterCrashBeforeLogRemoval: a crash between the snapshot's
// rename and the removal of the logs it covers leaves those logs on
// disk. Since must still stream every seq once, and never a superseded
// version of a key; the next compaction deletes the stale log.
func TestSinceAfterCrashBeforeLogRemoval(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	const n = 12
	for i := 0; i < n; i++ {
		s.Append(testVerdict(i, 1))
	}
	for i := 0; i < n; i += 3 {
		s.Append(testVerdict(i, 2)) // supersedes seq i+1
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	covered := activeLog(t, dir)
	stale, err := os.ReadFile(covered)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(covered, stale, 0o644); err != nil { // the removal never happened
		t.Fatal(err)
	}

	r := openTest(t, dir, -1)
	defer r.Close()
	for i := 0; i < n; i++ {
		if !r.Has(testVerdict(i, 0).Domain) {
			t.Fatalf("Has(key %d) false after reopen", i)
		}
	}
	recs, _, more, err := since(r, 0, 1000)
	if err != nil || more {
		t.Fatalf("Since: more %v, err %v", more, err)
	}
	seqs, keys := make(map[uint64]bool), make(map[string]bool)
	for _, rec := range recs {
		if seqs[rec.Seq] || keys[rec.Verdict.Domain] {
			t.Fatalf("Since streamed seq %d (%s) twice or behind its own rewrite: %d records for %d keys", rec.Seq, rec.Verdict.Domain, len(recs), n)
		}
		seqs[rec.Seq], keys[rec.Verdict.Domain] = true, true
	}
	if len(recs) != n {
		t.Fatalf("Since streamed %d records, want one per key (%d)", len(recs), n)
	}

	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if logs, _ := listLogs(dir); len(logs) != 1 {
		t.Fatalf("the next compaction left %d logs, want the active one: %v", len(logs), logs)
	}
	if st := r.Stats(); st.SnapshotEntries != n {
		t.Fatalf("snapshot holds %d entries after merging the stale log, want %d", st.SnapshotEntries, n)
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
	recs, durable, _, err := since(s, 0, goroutines*per)
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
				v := testVerdict(g*per+i, 1)
				if seq := s.Append(v); seq == 0 || !s.Has(v.Domain) {
					t.Errorf("goroutine %d: Append returned %d, Has %v", g, seq, s.Has(v.Domain))
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
	recs, durable, _, err := since(s, 0, goroutines*per)
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

// TestCompactionKeepsLatestAcrossSnapshots: a second compaction merges
// the first snapshot with a log that rewrites half its keys. The new
// snapshot holds one record per key, the rewritten ones at their new
// version, and a reopen recovers exactly that.
func TestCompactionKeepsLatestAcrossSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	const n = 20
	for i := 0; i < n; i++ {
		s.Append(testVerdict(i, 1))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		s.Append(testVerdict(i, 2))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Snapshots != 2 || st.SnapshotSeq != n+n/2 || st.SnapshotEntries != n {
		t.Fatalf("after two compactions: %+v", st)
	}
	s.Close()

	r := openTest(t, dir, -1)
	defer r.Close()
	recs := r.TakeRecovered()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for _, rec := range recs {
		var i int
		fmt.Sscanf(rec.Verdict.Domain, "xn--test%04d.example", &i)
		if want := testVerdict(i, 1+(i+1)%2); rec.Verdict.Unicode != want.Unicode {
			t.Fatalf("key %d recovered as %q, want %q", i, rec.Verdict.Unicode, want.Unicode)
		}
	}
}

// TestCompactTwiceWithoutAppends: a second compaction with nothing new
// appended has no log to rotate and must leave the active log in place.
func TestCompactTwiceWithoutAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	for i := 0; i < 5; i++ {
		s.Append(testVerdict(i, 1))
	}
	for round := 0; round < 2; round++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	s.Append(testVerdict(5, 1))
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
