package watch

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"

	"idnlab/internal/core"
	"idnlab/internal/pipeline"
)

// EngineConfig parameterizes the streaming match engine.
type EngineConfig struct {
	// Workers is the match fan-out; <= 0 selects GOMAXPROCS, the width
	// the daemon runs at. Tests pin a pool wider than one, so the event
	// order of alerts is exercised on a one-core machine too.
	Workers int
}

// Engine runs delta events through a pipeline of matcher workers and
// keeps the alerts: events whose label imitates a brand that at least
// one subscriber is watching. Each event's alert is written at the
// event's index and emitted in event order, which makes a run's alert
// sequence deterministic — the property the crash-recovery tests lean
// on.
type Engine struct {
	pipe *pipeline.Engine[*Matcher]
	subs *SubTable
	det  *core.HomographDetector

	matched    atomic.Uint64 // events whose label hit a watched brand
	unwatched  atomic.Uint64 // matches suppressed: no subscriber
	decodeErrs atomic.Uint64 // ACE owners that failed punycode decode
}

// NewEngine builds the engine around an index-backed detector (see
// NewMatcher) and a compiled subscription table; an uncompiled one is
// refused.
func NewEngine(det *core.HomographDetector, subs *SubTable, cfg EngineConfig) (*Engine, error) {
	if subs.lists != nil {
		return nil, errors.New("watch: NewEngine needs a compiled SubTable")
	}
	proto, err := NewMatcher(det)
	if err != nil {
		return nil, err
	}
	e := &Engine{subs: subs, det: det}
	e.pipe = pipeline.New(
		// Dispatch is the pipeline default (batches of 32): delta events
		// are µs-scale work items, and claiming 32 at a time keeps the
		// engine's per-batch claim and cancellation check off the hot path.
		pipeline.Config{Stage: "watch", Workers: cfg.Workers},
		proto.Clone,
	)
	return e, nil
}

// process matches one event and returns its alert, nil for none. Drops
// are ignored (a deleted name threatens nobody); ASCII owners are skipped
// without probing (an ASCII label cannot be a homograph — same fast-path
// rule as DetectNormalized); IDN owners are decoded and matched. A match
// only becomes an alert if the brand has subscribers.
func (e *Engine) process(m *Matcher, ev *Event) *Alert {
	if ev.Op == OpDrop || !strings.HasPrefix(ev.Owner, "xn--") {
		return nil
	}
	label, err := m.decode(ev.Owner)
	if err != nil {
		e.decodeErrs.Add(1)
		return nil
	}
	// Learned prefilter: with a statistical model attached to the
	// detector, score the label once (the owner IS the ACE label; the
	// origin is the zone) and shed low-suspicion churn before the SSIM
	// probe — the same gate the serving tier applies, with the same
	// pass/shed counters surfacing at /metrics.
	if sm := m.det.StatModel(); sm != nil {
		raw := sm.ScoreLabel(label, ev.Owner, strings.TrimSuffix(ev.Origin, "."))
		if !m.det.AdmitStat(raw) {
			return nil
		}
	}
	match, ok := m.Match(label)
	if !ok {
		return nil
	}
	e.matched.Add(1)
	subs := e.subs.Count(match.BrandID)
	if subs == 0 {
		e.unwatched.Add(1)
		return nil
	}
	return &Alert{
		Serial:  ev.Serial,
		Op:      ev.Op.String(),
		Domain:  ev.Domain(),
		Unicode: label + "." + ev.Origin,
		Brand:   match.Brand,
		SSIM:    match.SSIM,
		Subs:    subs,
	}
}

// match runs one parsed delta's events through the match pipeline and
// returns each event's alert at the event's index, nil where it raised
// none.
func (e *Engine) match(ctx context.Context, d *Delta) ([]*Alert, error) {
	alerts := make([]*Alert, len(d.Events))
	err := e.pipe.Run(ctx, len(d.Events), func(m *Matcher, i int) error {
		alerts[i] = e.process(m, &d.Events[i])
		return nil
	})
	return alerts, err
}

// ProcessDelta runs one parsed delta's events through the match
// pipeline, then calls emit for every alert in event order. A
// cancellation during the emits stops them with ctx.Err().
func (e *Engine) ProcessDelta(ctx context.Context, d *Delta, emit func(Alert) error) error {
	alerts, err := e.match(ctx, d)
	if err != nil {
		return err
	}
	for _, a := range alerts {
		if a == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(*a); err != nil {
			return err
		}
	}
	return nil
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
