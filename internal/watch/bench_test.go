package watch

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/simrand"
	"idnlab/internal/zonegen"
)

// benchCatalog builds the 10k-brand defended catalog: the full real
// top-1000 list plus synthetic ASCII LDH labels — the scale the issue's
// "millions of subscriptions over a production-size catalog" scenario
// assumes. Deterministic.
func benchCatalog(n int) []brands.Brand {
	list := append([]brands.Brand(nil), brands.List()...)
	src := simrand.New(0xBEEF_5EED)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := len(list); i < n; i++ {
		m := 4 + src.Intn(16)
		label := make([]byte, 0, m)
		for j := 0; j < m; j++ {
			if src.Bool(0.08) {
				label = append(label, byte('0'+src.Intn(10)))
			} else {
				label = append(label, letters[src.Intn(26)])
			}
		}
		list = append(list, brands.Brand{Domain: string(label) + ".com", Rank: i + 1})
	}
	return list
}

// benchEvent is one pre-parsed, pre-decoded delta event: the shape the
// match stage sees after the I/O side (scan + punycode decode) has run.
type benchEvent struct {
	label string // unicode SLD label ("" for pure-ASCII owners)
	idn   bool
}

// benchEventCorpus renders a real zonegen delta stream and flattens the
// add/NS-change events into match-stage inputs: the honest workload mix
// (mostly benign ASCII, benign IDNs, a paper-calibrated share of
// homograph attacks against the real catalog).
func benchEventCorpus(tb testing.TB, days, addsPerDay int) []benchEvent {
	tb.Helper()
	reg := zonegen.Generate(zonegen.Config{Seed: 1707, Scale: 400})
	gen := reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: addsPerDay, AttackShare: 0.05, AttackTopK: 500})
	var events []benchEvent
	for day := 0; day < days; day++ {
		d := gen.Next()
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		parsed, err := ParseDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			tb.Fatal(err)
		}
		for _, ev := range parsed.Events {
			if ev.Op == OpDrop {
				continue
			}
			be := benchEvent{}
			if idna.IsACELabel(ev.Owner) {
				label, err := idna.ToUnicodeLabel(ev.Owner)
				if err != nil {
					continue
				}
				be = benchEvent{label: label, idn: true}
			}
			events = append(events, be)
		}
	}
	return events
}

// benchSubs installs subs standing subscriptions over nBrands brands
// with a popularity skew (min of two uniforms ≈ rank-weighted: popular
// brands collect more watchers).
func benchSubs(nBrands, subs int) *SubTable {
	tab := NewSubTable(nBrands)
	src := simrand.New(0x5AB5C21B)
	for i := 0; i < subs; i++ {
		b := src.Intn(nBrands)
		if b2 := src.Intn(nBrands); b2 < b {
			b = b2
		}
		tab.Subscribe(uint32(b), uint64(i))
	}
	tab.Compile()
	return tab
}

// BenchmarkWatchMatch1M is the tentpole gate: one op = one delta event
// through the match stage (index probe + candidate rescore + CSR
// subscriber lookup) against a 10k-brand catalog with 1,000,000
// standing subscriptions. `make bench-gates` holds it to 500k events/s;
// TestMatchZeroAlloc pins 0 allocs/op.
func BenchmarkWatchMatch1M(b *testing.B) {
	const nBrands = 10_000
	catalog := benchCatalog(nBrands)
	events := benchEventCorpus(b, 4, 3000)
	tab := benchSubs(nBrands, 1_000_000)
	if tab.Total() != 1_000_000 {
		b.Fatalf("subscriptions = %d, want 1M", tab.Total())
	}
	ix, err := candidx.Build(catalog, candidx.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMatcher(core.NewHomographDetector(0, core.WithIndex(ix)))
	if err != nil {
		b.Fatal(err)
	}

	// Warm caches and scratch, and count the hit rate once.
	hits, watched := 0, 0
	for _, ev := range events {
		if !ev.idn {
			continue
		}
		if match, ok := m.Match(ev.label); ok {
			hits++
			if tab.Count(match.BrandID) > 0 {
				watched++
			}
		}
	}
	b.Logf("%d events (%d IDN), %d matches, %d watched", len(events), countIDN(events), hits, watched)

	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		if !ev.idn {
			continue
		}
		if match, ok := m.Match(ev.label); ok {
			sink += uint64(len(tab.Of(match.BrandID)))
		}
	}
	_ = sink
}

func countIDN(events []benchEvent) int {
	n := 0
	for _, ev := range events {
		if ev.idn {
			n++
		}
	}
	return n
}

// BenchmarkAlertLogAppend measures the group-commit batching curve: the
// same durable append under 1, 16 and 256 concurrent writers, each
// waiting for durability after every alert. One op = one durable alert
// (Append + Sync). frames/commit is the measured batch size — writers
// blocked on the same in-flight fsync have their frames committed
// together, so the batch grows with writer count while the fsync cost
// amortizes: the whole value of group commit.
func BenchmarkAlertLogAppend(b *testing.B) {
	for _, writers := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := OpenAlertLog(filepath.Join(b.TempDir(), "bench.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			alert := Alert{Serial: 2017080101, Op: "add", Domain: "xn--pple-43d.com",
				Unicode: "аpple.com", Brand: "apple.com", SSIM: 0.997, Subs: 3}
			base := l.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / writers
			extra := b.N % writers
			for w := 0; w < writers; w++ {
				n := per
				if w < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := l.Append(alert); err != nil {
							b.Error(err)
							return
						}
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			st := l.Stats()
			if st.Durable-base.Durable != uint64(b.N) {
				b.Fatalf("durable %d, want %d", st.Durable-base.Durable, b.N)
			}
			commits := st.Commits - base.Commits
			if commits > 0 {
				b.ReportMetric(float64(uint64(b.N))/float64(commits), "frames/commit")
			}
		})
	}
}

// BenchmarkRunnerCommit measures what committing one delta costs on
// top of matching it, with real fsync: one alert appended, the alert
// log's Sync, then the cursor commit (one frame appended to the cursor
// file and fsynced). One op = one delta.
func BenchmarkRunnerCommit(b *testing.B) {
	dir := b.TempDir()
	l, err := OpenAlertLog(filepath.Join(dir, "alerts.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := newRunner(b, nil, l, dir, filepath.Join(dir, "alerts.log.cursor"))
	defer r.Close()
	alert := Alert{Op: "add", Domain: "xn--pple-43d.com", Unicode: "аpple.com", Brand: "apple.com", SSIM: 0.997, Subs: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alert.Serial = 2017080101 + uint32(i)
		if err := l.Append(alert); err != nil {
			b.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := r.commit(Cursor{Serial: alert.Serial, LogOffset: l.Size()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerPoll is an idnwatch -once pass in process: one op is
// a Poll over 6 delta files of the watch_ingest shape (10,000 adds a
// day over the scale-20 corpus universe, ~15.8k events a file), with
// real fsync, a fresh alert log and cursor, the default top-1000 index
// and 1,000,000 subscriptions, as idnwatch installs them. Reported in
// events/s. Unlike the workload's pass it starts no process and runs
// no statistical prefilter.
func BenchmarkRunnerPoll(b *testing.B) {
	const files, subsN = 6, 1_000_000
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 20})
	gen := reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: 10000})
	dir := b.TempDir()
	deltas := filepath.Join(dir, "deltas")
	if err := os.Mkdir(deltas, 0o755); err != nil {
		b.Fatal(err)
	}
	events := 0
	for i := 0; i < files; i++ {
		d := gen.Next()
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		parsed, err := ParseDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		events += len(parsed.Events)
		if err := os.WriteFile(filepath.Join(deltas, zonegen.DeltaFileName(d.Serial)), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	det := core.NewHomographDetector(1000)
	nBrands := len(det.Index().Brands())
	subs := NewSubTable(nBrands)
	for i := 0; i < subsN; i++ {
		subs.Subscribe(uint32(i%nBrands), uint64(1+i))
	}
	subs.Compile()
	eng, err := NewEngine(det, subs, EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	logPath := filepath.Join(dir, "alerts.log")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(logPath)
		os.Remove(logPath + ".cursor")
		l, err := OpenAlertLog(logPath)
		if err != nil {
			b.Fatal(err)
		}
		r := newRunner(b, eng, l, deltas, logPath+".cursor")
		b.StartTimer()
		n, _, err := r.Poll(context.Background())
		b.StopTimer()
		if err != nil || n != files {
			b.Fatalf("Poll: %d files, err %v; want %d", n, err, files)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDeltaParse measures the I/O-side cost the match stage sits
// behind: scanning and classifying one full day delta of the shape the
// watch_ingest workload replays (10,000 adds a day over the scale-20
// corpus universe, ~1.4 MB and ~15.8k events). Reported in MB/s; one
// op = one whole delta file.
func BenchmarkDeltaParse(b *testing.B) {
	reg := zonegen.Generate(zonegen.Config{Seed: 2018, Scale: 20})
	gen := reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: 10000})
	d := gen.Next()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	parsed, err := ParseDelta(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("delta: %d bytes, %d events", len(data), len(parsed.Events))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDelta(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubscribe1M is idnwatch's start-up at the bench's size:
// 1,000,000 Subscribe calls over a 1,000-brand catalog (the default
// index) with benchSubs' popularity skew, then one Compile. Reported in
// subscriptions/s. A Subscribe that scans its brand's list for a
// duplicate is quadratic here and runs ~1.6M/s, one behind a stripe
// lock 17-25M/s; `make bench-gates` holds the frozen table to 20M/s.
func BenchmarkSubscribe1M(b *testing.B) {
	const nBrands, subs = 1000, 1_000_000
	src := simrand.New(0x5AB5C21B)
	brand := make([]uint32, subs)
	for i := range brand {
		b1, b2 := src.Intn(nBrands), src.Intn(nBrands)
		brand[i] = uint32(min(b1, b2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := NewSubTable(nBrands)
		for j, br := range brand {
			tab.Subscribe(br, uint64(j))
		}
		tab.Compile()
		if got := tab.Total(); got != subs {
			b.Fatalf("compiled %d subscriptions, want %d", got, subs)
		}
	}
	b.ReportMetric(float64(subs)*float64(b.N)/b.Elapsed().Seconds(), "subscriptions/s")
}
