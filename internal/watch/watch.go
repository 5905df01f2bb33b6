package watch

import (
	"context"
	"strings"
	"sync/atomic"

	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/pipeline"
)

// EngineConfig parameterizes the streaming match engine.
type EngineConfig struct {
	// Workers is the match fan-out; <= 0 selects GOMAXPROCS.
	Workers int
}

// Engine streams delta events through a pipeline of matcher workers and
// filters the results down to alerts: events whose label imitates a
// brand that at least one subscriber is watching. Verdict order is
// input order (the pipeline's fan-in guarantee), which makes a run's
// alert sequence deterministic — the property the crash-recovery tests
// lean on.
type Engine struct {
	pipe *pipeline.Engine[Event, Alert, *Matcher]
	subs *SubTable
	det  *core.HomographDetector

	matched    atomic.Uint64 // events whose label hit a watched brand
	unwatched  atomic.Uint64 // matches suppressed: no subscriber
	decodeErrs atomic.Uint64 // ACE owners that failed punycode decode
}

// NewEngine builds the engine around an index-backed detector (see
// NewMatcher) and a subscription table.
func NewEngine(det *core.HomographDetector, subs *SubTable, cfg EngineConfig) (*Engine, error) {
	proto, err := NewMatcher(det)
	if err != nil {
		return nil, err
	}
	e := &Engine{subs: subs, det: det}
	e.pipe = pipeline.New(
		// Dispatch is the pipeline default (batches of 32): delta events
		// are µs-scale work items, and batching keeps channel overhead
		// off the hot path.
		pipeline.Config{Stage: "watch", Workers: cfg.Workers},
		proto.Clone,
		e.process,
	)
	return e, nil
}

// process is the per-event pipeline Func. Drops are ignored (a deleted
// name threatens nobody); ASCII owners are skipped without probing (an
// ASCII label cannot be a homograph — same fast-path rule as
// DetectNormalized); IDN owners are decoded and matched. A match only
// becomes an alert if the brand has subscribers in the current
// snapshot.
func (e *Engine) process(m *Matcher, ev Event) (Alert, bool, error) {
	if ev.Op == OpDrop || !strings.HasPrefix(ev.Owner, "xn--") {
		return Alert{}, false, nil
	}
	label, err := idna.ToUnicodeLabel(ev.Owner)
	if err != nil {
		e.decodeErrs.Add(1)
		return Alert{}, false, nil
	}
	// Learned prefilter: with a statistical model attached to the
	// detector, score the label once (the owner IS the ACE label; the
	// origin is the zone) and shed low-suspicion churn before the SSIM
	// probe — the same gate the serving tier applies, with the same
	// pass/shed counters surfacing at /metrics.
	if sm := m.det.StatModel(); sm != nil {
		raw := sm.ScoreLabel(label, ev.Owner, strings.TrimSuffix(ev.Origin, "."))
		if !m.det.AdmitStat(raw) {
			return Alert{}, false, nil
		}
	}
	match, ok := m.Match(label)
	if !ok {
		return Alert{}, false, nil
	}
	e.matched.Add(1)
	subs := e.subs.Snapshot().Count(match.BrandID)
	if subs == 0 {
		e.unwatched.Add(1)
		return Alert{}, false, nil
	}
	return Alert{
		Serial:  ev.Serial,
		Op:      ev.Op.String(),
		Domain:  ev.Domain(),
		Unicode: label + "." + ev.Origin,
		Brand:   match.Brand,
		SSIM:    match.SSIM,
		Subs:    subs,
	}, true, nil
}

// ProcessDelta streams one parsed delta's events through the match
// pipeline, calling emit for every alert in event order.
func (e *Engine) ProcessDelta(ctx context.Context, d *Delta, emit func(Alert) error) error {
	return e.pipe.Stream(ctx, pipeline.FromSlice(d.Events), emit)
}

// Metrics snapshots the underlying pipeline stage (in/out/backlog/
// utilization across all deltas processed so far).
func (e *Engine) Metrics() pipeline.Metrics { return e.pipe.Metrics() }

// Counters reports the engine's own filters: total matches, matches
// suppressed for lack of subscribers, and undecodable owners.
func (e *Engine) Counters() (matched, unwatched, decodeErrs uint64) {
	return e.matched.Load(), e.unwatched.Load(), e.decodeErrs.Load()
}

// DetectorStats snapshots the detector family's shared counters
// (bounded-rescore early exits, statistical prefilter pass/shed),
// aggregated across every matcher clone.
func (e *Engine) DetectorStats() core.DetectorStats { return e.det.Stats() }
