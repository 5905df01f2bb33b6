package vstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/framelog"
)

// Benchmarks:
//
//	BenchmarkVstoreAppend    append+group-commit throughput (MB/s)
//	BenchmarkVstoreRecovery  reopen/replay throughput (MB/s) and
//	                         warm-boot entries/s; `make bench-gates`
//	                         holds it to >= 100k entries/s
//	BenchmarkVstoreSince     anti-entropy suffix streaming (records/s):
//	                         one round over a 32,768-record store in
//	                         2,048-record pages; `make bench-gates`
//	                         holds it to >= 300k records/s
//	BenchmarkVstoreCompact   compaction throughput (records/s); every
//	                         compaction rewrites the whole durable set,
//	                         and `make bench-gates` holds it to >= 100k
//	                         records/s
//
// Every commit fsyncs, as in production, so the rates include the disk.

// recoveryRecords is the size of the store BenchmarkVstoreRecovery
// replays and BenchmarkVstoreCompact merges per iteration. The gates are
// rates, so they hold at any size.
const recoveryRecords = 50_000

func benchVerdict(i int) core.Verdict {
	return core.Verdict{
		Domain:  fmt.Sprintf("xn--bench%07d.example", i),
		Unicode: fmt.Sprintf("bénch%07d.example", i),
		IDN:     true,
	}
}

// recordBytes measures the framed size of one benchmark record.
func recordBytes(b *testing.B) int64 {
	b.Helper()
	payload, err := appendRecord(nil, 1, benchVerdict(0))
	if err != nil {
		b.Fatal(err)
	}
	return int64(len(framelog.AppendFrame(nil, payload)))
}

func BenchmarkVstoreAppend(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(recordBytes(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seq := s.Append(benchVerdict(i)); seq == 0 {
			b.Fatal("Append returned 0")
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkVstoreRecovery(b *testing.B) {
	const n = recoveryRecords
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Append(benchVerdict(i))
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	var dirBytes int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if st, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			dirBytes += st.Size()
		}
	}
	b.SetBytes(dirBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(Config{Dir: dir, CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(r.TakeRecovered()); got != n {
			b.Fatalf("recovered %d records, want %d", got, n)
		}
		r.Close()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkVstoreSince pages one anti-entropy round through a store of
// the cluster bench's size in the replica's page size. Every
// benchVerdict frame has the same length and seqs run 1..n, so each page
// is checked by its byte count alone.
func BenchmarkVstoreSince(b *testing.B) {
	const n, page = 32_768, 2048
	s, err := Open(Config{Dir: b.TempDir(), CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		s.Append(benchVerdict(i))
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	want := page * recordBytes(b)
	buf := make([]byte, 0, want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for after := uint64(0); after < n; after += page {
			frames, _, more, err := s.Since(buf[:0], after, page)
			if err != nil {
				b.Fatal(err)
			}
			if int64(len(frames)) != want || more != (after+page < n) {
				b.Fatalf("page after %d: %d bytes, more %v; want %d bytes", after, len(frames), more, want)
			}
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkVstoreCompact(b *testing.B) {
	const n = recoveryRecords
	s, err := Open(Config{Dir: b.TempDir(), CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		s.Append(benchVerdict(i))
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One fresh record gives the compaction a closed log to merge into
		// the n-record snapshot.
		if seq := s.Append(benchVerdict(n + i)); seq == 0 {
			b.Fatal("Append returned 0")
		}
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Snapshots != uint64(b.N)+1 || st.SnapshotEntries != n+b.N {
		b.Fatalf("after %d compactions: %+v", b.N, st)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
