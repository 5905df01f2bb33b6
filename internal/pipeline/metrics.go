package pipeline

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Metrics is a point-in-time snapshot of one engine's counters. Counts
// accumulate over the engine's lifetime; subtract two snapshots to meter
// a single scan.
type Metrics struct {
	// Stage is the configured stage name.
	Stage string
	// Workers is the resolved fan-out width.
	Workers int
	// In counts the items of every run, added when the run starts.
	In uint64
	// Out counts the indices whose fn returned nil.
	Out uint64
	// Errors counts fn calls that returned an error.
	Errors uint64
	// Consumed counts items workers have finished with (processed, or
	// skipped after an error or a cancellation). In − Consumed
	// is the live backlog: items of running scans not yet through a
	// worker.
	Consumed uint64
	// Elapsed is the total wall time spent inside Run.
	Elapsed time.Duration
	// Busy is the per-worker time spent inside fn calls.
	Busy []time.Duration
}

// Backlog reports the work left at snapshot time: items of running
// scans that no worker has finished with yet (unclaimed batches plus
// items of batches in flight). A persistently high backlog on a
// stage means its workers are the bottleneck — the signal the watch
// tier uses for backpressure visibility.
func (m Metrics) Backlog() uint64 {
	if m.Consumed > m.In {
		return 0
	}
	return m.In - m.Consumed
}

// Throughput reports input items per second of wall time.
func (m Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.In) / m.Elapsed.Seconds()
}

// Utilization reports the mean fraction of wall time the workers spent
// processing items — 1.0 means every worker was busy the whole scan,
// low values point at too few batches for the workers.
func (m Metrics) Utilization() float64 {
	if m.Elapsed <= 0 || m.Workers == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range m.Busy {
		busy += b
	}
	return busy.Seconds() / (m.Elapsed.Seconds() * float64(m.Workers))
}

// MetricsJSON is the wire form of a Metrics snapshot, used by the online
// serving layer's /metrics endpoint. Busy times are folded into the
// derived utilization figure rather than shipped per worker.
type MetricsJSON struct {
	Stage            string  `json:"stage"`
	Workers          int     `json:"workers"`
	In               uint64  `json:"in"`
	Out              uint64  `json:"out"`
	Errors           uint64  `json:"errors"`
	Backlog          uint64  `json:"backlog"`
	ElapsedMillis    float64 `json:"elapsedMillis"`
	ThroughputPerSec float64 `json:"throughputPerSec"`
	Utilization      float64 `json:"utilization"`
}

// JSON converts the snapshot to its wire form.
func (m Metrics) JSON() MetricsJSON {
	return MetricsJSON{
		Stage:            m.Stage,
		Workers:          m.Workers,
		In:               m.In,
		Out:              m.Out,
		Errors:           m.Errors,
		Backlog:          m.Backlog(),
		ElapsedMillis:    float64(m.Elapsed) / float64(time.Millisecond),
		ThroughputPerSec: m.Throughput(),
		Utilization:      m.Utilization(),
	}
}

// String renders a one-line summary for -metrics output.
func (m Metrics) String() string {
	return fmt.Sprintf("stage=%s workers=%d in=%d out=%d errors=%d backlog=%d elapsed=%s throughput=%.0f/s utilization=%.0f%%",
		m.Stage, m.Workers, m.In, m.Out, m.Errors, m.Backlog(),
		m.Elapsed.Round(time.Millisecond), m.Throughput(), 100*m.Utilization())
}

// meter holds the engine's live counters. All fields are updated with
// atomics so Metrics() is safe during a scan.
type meter struct {
	stage    string
	workers  int
	in       atomic.Uint64
	out      atomic.Uint64
	errors   atomic.Uint64
	consumed atomic.Uint64
	elapsed  atomic.Int64 // nanoseconds
	busy     []atomic.Int64
}

func newMeter(stage string, workers int) *meter {
	if stage == "" {
		stage = "scan"
	}
	return &meter{stage: stage, workers: workers, busy: make([]atomic.Int64, workers)}
}

func (m *meter) addBusy(worker int, d time.Duration) {
	m.busy[worker].Add(int64(d))
}

func (m *meter) addElapsed(d time.Duration) {
	m.elapsed.Add(int64(d))
}

func (m *meter) snapshot() Metrics {
	// consumed is read before in: it only ever trails in, so this order
	// guarantees the snapshot never shows Consumed > In mid-scan.
	consumed := m.consumed.Load()
	s := Metrics{
		Stage:    m.stage,
		Workers:  m.workers,
		Consumed: consumed,
		In:       m.in.Load(),
		Out:      m.out.Load(),
		Errors:   m.errors.Load(),
		Elapsed:  time.Duration(m.elapsed.Load()),
		Busy:     make([]time.Duration, len(m.busy)),
	}
	for i := range m.busy {
		s.Busy[i] = time.Duration(m.busy[i].Load())
	}
	return s
}
