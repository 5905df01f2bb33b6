package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"idnlab/internal/candidx"
	"idnlab/internal/core"
	"idnlab/internal/feat"
	"idnlab/internal/watch"
	"idnlab/internal/zonegen"
)

// watch_ingest: sequential passes of `idnwatch -once` over the same delta
// files, each with a fresh alert log and cursor. A pass is the unit of
// latency; delta events are the unit of throughput.

var reWatchSummary = regexp.MustCompile(`processed (\d+) deltas: (\d+) alerts \(matched=(\d+), commits=(\d+), avg batch ([0-9.]+)\)`)

// watchInputs are the generated files with their parsed form.
type watchInputs struct {
	files  []*zonegen.DayDelta
	texts  [][]byte
	deltas []*watch.Delta
	events int
}

// buildWatchInputs generates the days from the corpus's delta stream,
// clones them to the pass's files and serializes each.
func buildWatchInputs(reg *zonegen.Registry, seed uint64, sz sizes) (*watchInputs, error) {
	gen := reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: sz.WatchAdds})
	days := make([]*zonegen.DayDelta, sz.WatchDays)
	for i := range days {
		days[i] = gen.Next()
	}
	in := &watchInputs{files: deltaClones(days, seed, sz.WatchFiles)}
	for _, f := range in.files {
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			return nil, err
		}
		d, err := watch.ParseDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("generated delta %d does not parse: %w", f.Serial, err)
		}
		in.texts = append(in.texts, buf.Bytes())
		in.deltas = append(in.deltas, d)
		in.events += len(d.Events)
	}
	return in, nil
}

func (in *watchInputs) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range in.files {
		if err := os.WriteFile(filepath.Join(dir, zonegen.DeltaFileName(f.Serial)), in.texts[i], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// watchEngine builds the matcher idnwatch builds from -index, -stat and
// -subs: the same detector options and the same synthetic subscriptions.
func watchEngine(indexPath, statPath string, subsN int) (*watch.Engine, error) {
	ix, err := candidx.LoadFile(indexPath)
	if err != nil {
		return nil, err
	}
	stat, err := feat.LoadFile(statPath)
	if err != nil {
		return nil, err
	}
	det := core.NewHomographDetector(0, core.WithIndex(ix), core.WithStatModel(stat))
	catalog := ix.Brands()
	subs := watch.NewSubTable(len(catalog))
	for i := 0; i < subsN; i++ {
		subs.Subscribe(uint32(i%len(catalog)), uint64(1+i))
	}
	subs.Compile()
	return watch.NewEngine(det, subs, watch.EngineConfig{})
}

// expectedAlerts is the oracle: the alerts an in-process engine raises
// for the same deltas, in order.
func expectedAlerts(ctx context.Context, eng *watch.Engine, deltas []*watch.Delta) ([]watch.Alert, error) {
	var out []watch.Alert
	for _, d := range deltas {
		err := eng.ProcessDelta(ctx, d, func(a watch.Alert) error {
			out = append(out, a)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// watchPass is one `idnwatch -once` run.
type watchPass struct {
	pass
	alerts, commits int
	log             []watch.Alert
}

func runWatchPass(e *env, sup *supervisor, art artifacts, deltaDir, tag string, keepLog bool) (*watchPass, error) {
	alertPath := sup.path("alerts-" + tag + ".log")
	timed, p, err := timePass(func() (*proc, error) {
		return sup.run("idnwatch-"+tag, nil, nil, e.tool("idnwatch"), "-deltas", deltaDir, "-alerts", alertPath,
			"-once", "-index", art.Index, "-stat", art.Stat, "-subs", strconv.Itoa(e.size.WatchSubs))
	})
	if err != nil {
		return nil, err
	}
	pass := &watchPass{pass: timed}
	m := p.log.find(reWatchSummary)
	if m == nil || !p.log.contains(drainedLine) {
		return nil, fmt.Errorf("idnwatch pass %s printed no summary or no %q; log:\n%s", tag, drainedLine, p.log)
	}
	pass.alerts, _ = strconv.Atoi(m[2]) // the pattern admits digits only
	pass.commits, _ = strconv.Atoi(m[4])
	if keepLog {
		_, err = watch.ReplayAlertLog(alertPath, 0, func(_ int64, a watch.Alert) error {
			pass.log = append(pass.log, a)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// A fresh log and cursor for the next pass.
	os.Remove(alertPath)
	os.Remove(alertPath + ".cursor")
	return pass, nil
}

func runWatch(e *env) (*runResult, error) {
	res := newResult(wlWatch, e.seed)
	begin := time.Now()
	sup, err := newSupervisor(e.ctx, e.tmp)
	if err != nil {
		return nil, err
	}
	defer sup.close()

	c := buildCorpus(e.size, false)
	in, err := buildWatchInputs(c.reg, e.seed, e.size)
	if err != nil {
		return nil, err
	}
	deltaDir := sup.path("deltas")
	if err := in.write(deltaDir); err != nil {
		return nil, err
	}
	inputs := time.Since(begin)
	art, err := buildArtifacts(e, sup, c)
	if err != nil {
		return nil, err
	}
	artifactsDone := time.Since(begin)

	// Start-up cost alone: a pass over an empty directory loads the index
	// and the model and compiles the subscriptions, then exits.
	empty := sup.path("empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		return nil, err
	}
	startup, err := runWatchPass(e, sup, art, empty, "startup", false)
	if err != nil {
		return nil, err
	}
	booted := time.Since(begin)
	if _, err := runWatchPass(e, sup, art, deltaDir, "warmup", false); err != nil {
		return nil, err
	}
	setup := time.Since(begin)

	var passes []*watchPass
	timed, self, err := batchPhase(e.size.WatchPasses, func(i int) (pass, error) {
		p, err := runWatchPass(e, sup, art, deltaDir, strconv.Itoa(i), true)
		if err != nil {
			return pass{}, err
		}
		passes = append(passes, p)
		return p.pass, nil
	})
	if err != nil {
		return nil, err
	}

	// Judged after the phase: every pass must have logged exactly the
	// alerts the in-process engine raises, in the same order.
	eng, err := watchEngine(art.Index, art.Stat, e.size.WatchSubs)
	if err != nil {
		return nil, err
	}
	want, err := expectedAlerts(e.ctx, eng, in.deltas)
	if err != nil {
		return nil, err
	}
	res.Attempted = len(passes) * in.events
	for i, p := range passes {
		if bad := diffAlerts(want, p.log); bad > 0 {
			res.Failed += bad
			if len(res.Failures) < 5 {
				res.Failures = append(res.Failures, fmt.Sprintf("pass %d: %d alerts differ from the oracle's (%d logged, %d expected)", i, bad, len(p.log), len(want)))
			}
		}
	}
	q := watchQuality(in, want)

	passMs := batchMetrics(res, timed, in.events, setup, self, q)
	commits := 0
	for _, p := range passes {
		commits += p.commits
	}
	res.Layer["watch.alerts"] = metric{float64(passes[0].alerts), "count"}
	res.Layer["watch.startup_share"] = metric{float64(startup.wall) / 1e6 / passMs, "share"}
	res.Extra["watch.startup_s"] = metric{startup.wall.Seconds(), "s"}
	res.Extra["watch.process_alertlog_frames_per_commit"] = metric{safeDiv(float64(passes[0].alerts*len(passes)), float64(commits)), "count"}
	res.Extra["watch.events_per_pass"] = metric{float64(in.events), "count"}
	setupParts(res, inputs, artifactsDone-inputs, booted-artifactsDone, setup-booted)
	if e.trace {
		if err := watchBudget(e, res, sup, art, in, startup.wall); err != nil {
			return nil, err
		}
	}
	if err := sup.stop(); err != nil { // every pass has exited; this only confirms it
		return nil, err
	}
	return res, nil
}

// diffAlerts counts the positions at which got differs from want, plus
// the difference in length.
func diffAlerts(want, got []watch.Alert) int {
	bad := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			bad++
		}
	}
	if len(want) > len(got) {
		return bad + len(want) - len(got)
	}
	return bad + len(got) - len(want)
}

// watchQuality scores the alerts on registrations against the delta
// stream's ground truth: an add is flagged when an alert names it.
func watchQuality(in *watchInputs, alerts []watch.Alert) quality {
	type key struct {
		serial uint32
		domain string
	}
	alerted := make(map[key]bool, len(alerts))
	for _, a := range alerts {
		if a.Op == watch.OpAdd.String() {
			alerted[key{a.Serial, a.Domain}] = true
		}
	}
	var q quality
	for _, f := range in.files {
		for _, z := range f.Zones {
			for _, r := range z.Records {
				if r.Op == zonegen.DeltaAdd {
					q.add(r.Attack != zonegen.AttackNone, alerted[key{f.Serial, r.Owner + "." + z.Origin}])
				}
			}
		}
	}
	return q
}

// watchBudget runs the layer probes on the registrations of the first
// files and the traced and untraced replay of a pass, and files the
// budget: what share of a pass's wall time start-up plus the replayed
// layers do not explain.
func watchBudget(e *env, res *runResult, sup *supervisor, art artifacts, in *watchInputs, startup time.Duration) error {
	orc, err := loadOracle(art.Index, art.Stat)
	if err != nil {
		return err
	}
	kit, err := newLayerKit(orc)
	if err != nil {
		return err
	}
	var sample []string
	seen := make(map[string]struct{})
	for _, d := range in.deltas {
		for _, ev := range d.Events {
			if _, dup := seen[ev.Domain()]; !dup && ev.Op == watch.OpAdd && len(sample) < probeSample {
				seen[ev.Domain()] = struct{}{}
				sample = append(sample, ev.Domain())
			}
		}
	}
	orc.learn([]op{{Domains: sample}})
	if err := probeLayers(res, kit, sample, sup.dir); err != nil {
		return err
	}
	untraced, err := watchReplay(nil, kit, in.texts, sup.path("replay-plain.log"))
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := watchReplay(rec, kit, in.texts, sup.path("replay-traced.log"))
	if err != nil {
		return err
	}
	var layersNs int64
	for name, st := range rec.selfTimes() {
		res.Extra["trace.self_ms_per_pass."+name] = metric{float64(st.Total) / 1e6, "ms"}
		if name != "watch.file" {
			layersNs += st.Total
		}
	}
	passNs := res.E2E["latency_p50_ms"].Value * 1e6
	res.Layer["trace.overhead_share"] = metric{1 - safeDiv(float64(untraced), float64(traced)), "share"}
	res.Layer["budget.unattributed_share"] = metric{1 - safeDiv(float64(startup.Nanoseconds()+layersNs), passNs), "share"}
	return rec.writeFile(traceFile(e, wlWatch))
}
