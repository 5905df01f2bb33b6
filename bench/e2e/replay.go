package main

import (
	"bytes"
	"strings"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
	"idnlab/internal/watch"
)

// Traced replay: the workload's exact operation sequence pushed through
// the layers' public functions in this process, on one goroutine, with a
// span around every call. It is never mixed with the end-to-end numbers:
// the real run measures those, the replay says where a request's time
// goes. The same replay with a nil recorder is the untraced reference
// that prices the tracing itself.

const (
	// replayDomains caps the measured operations replayed (the warm-up is
	// always replayed in full, unrecorded, so the cache is in the state
	// the servers' was). serve_cold_batch misses on every domain, so its
	// prefix is as good as the whole.
	replayDomains = 300000
	// tracedRequests is how many requests get spans, spread evenly over
	// the replayed operations.
	tracedRequests = 20000
)

// replayer holds the layers a request crosses.
type replayer struct {
	kit   *layerKit
	cls   *core.Classifier
	cache *serve.VerdictCache
	ring  *cluster.Ring // cluster workload only
	store *vstore.Store // cluster workload only
}

// close releases the replayer's store, if it has one.
func (rp *replayer) close() error {
	if rp.store == nil {
		return nil
	}
	return rp.store.Close()
}

// miss remembers a verdict computed during a traced request, so that its
// children can be measured after the request's spans are closed.
type miss struct {
	n    core.NormalizedDomain
	span int
}

func (rp *replayer) domain(rec *recorder, parent int, raw string, misses *[]miss) api.DetectResponse {
	s := rec.begin("core.normalize", parent, 0)
	n, err := core.Normalize(raw)
	rec.end(s)
	if err != nil {
		return api.DetectResponse{Input: raw, Error: err.Error()}
	}
	if rp.ring != nil {
		s = rec.begin("cluster.ring_owner", parent, 0)
		rp.ring.Owner(n.ACE)
		rec.end(s)
	}
	do := rec.begin("serve.cache.do", parent, 0)
	v, hit, _ := rp.cache.Do(n.ACE, func() (core.Verdict, error) { // the compute below cannot fail
		vs := rec.begin("core.verdict", do, 0)
		v := rp.cls.Verdict(n)
		rec.end(vs)
		if rec.on() {
			*misses = append(*misses, miss{n, vs})
		}
		if rp.store != nil {
			a := rec.begin("vstore.append", do, 0)
			rp.store.Append(v)
			rec.end(a)
		}
		return v, nil
	})
	rec.end(do)
	return api.DetectResponse{Verdict: v, Flagged: v.Flagged(), Cached: hit}
}

// request replays one operation. buf is the reusable encode buffer.
func (rp *replayer) request(rec *recorder, o op, body []byte, buf []byte) []byte {
	var misses []miss
	req := 0
	if rec.on() {
		req = rec.begin("request", 0, rec.nextRequest())
	}
	s := rec.begin("api.decode", req, 0)
	var domains []string
	if o.Batch {
		br, _ := api.DecodeBatch(bytes.NewReader(body), coldBatchSize) // encoded by requestBodies
		domains = br.Domains
	} else {
		dr, _ := api.DecodeDetect(bytes.NewReader(body))
		domains = []string{dr.Domain}
	}
	rec.end(s)
	if o.Batch {
		resp := api.BatchResponse{Count: len(domains), Results: make([]api.DetectResponse, 0, len(domains))}
		for _, d := range domains {
			r := rp.domain(rec, req, d, &misses)
			if r.Flagged {
				resp.Flagged++
			}
			resp.Results = append(resp.Results, r)
		}
		s = rec.begin("api.encode", req, 0)
		buf, _ = api.AppendBatchResponse(buf[:0], &resp) // verdicts are finite
		rec.end(s)
	} else {
		r := rp.domain(rec, req, domains[0], &misses)
		s = rec.begin("api.encode", req, 0)
		buf, _ = api.AppendDetectResponse(buf[:0], &r)
		rec.end(s)
	}
	rec.end(req)
	// The verdict's children, each timed on its own through the layer's
	// public function and laid inside the verdict span.
	for _, m := range misses {
		if m.n.ASCII {
			continue // the detectors fast-exit on ASCII labels
		}
		begin := time.Now()
		pass := rp.kit.score(m.n)
		off := rec.add("feat.score", m.span, 0, int64(time.Since(begin)))
		if !pass {
			continue
		}
		begin = time.Now()
		cands := rp.kit.candidates(m.n.Label)
		off = rec.add("candidx.probe", m.span, off, int64(time.Since(begin)))
		begin = time.Now()
		rp.kit.rescore(m.n.Label, cands)
		rec.add("ssim.rescore", m.span, off, int64(time.Since(begin)))
	}
	return buf
}

// replayStats is what one replay pass cost.
type replayStats struct {
	requests int
	wall     time.Duration // over the measured operations replayed
}

// run replays seq: the warm-up unrecorded, then measured operations up to
// replayDomains domains, every stride-th of them with spans in rec.
func (rp *replayer) run(rec *recorder, seq *sequence, bodies [][]byte) replayStats {
	var buf []byte
	for i := 0; i < seq.Warm; i++ {
		buf = rp.request(nil, seq.Ops[i], bodies[i], buf)
	}
	end, domains := seq.Warm, 0
	for end < len(seq.Ops) && domains < replayDomains {
		domains += len(seq.Ops[end].Domains)
		end++
	}
	stride := (end - seq.Warm + tracedRequests - 1) / tracedRequests
	begin := time.Now()
	for i := seq.Warm; i < end; i++ {
		r := rec
		if (i-seq.Warm)%stride != 0 {
			r = nil
		}
		buf = rp.request(r, seq.Ops[i], bodies[i], buf)
	}
	return replayStats{requests: end - seq.Warm, wall: time.Since(begin)}
}

// requestBudget runs the traced and the untraced replay of a request
// workload and files the budget under res. handlerUs is the time per
// client request the real servers' innermost handlers reported;
// clientUs the generator's mean latency. newReplayer builds a replayer
// with fresh state for each pass.
func requestBudget(e *env, res *runResult, seq *sequence, newReplayer func() (*replayer, error), handlerUs, clientUs float64) error {
	bodies := requestBodies(seq.Ops)
	plain, err := newReplayer()
	if err != nil {
		return err
	}
	untraced := plain.run(nil, seq, bodies)
	if err := plain.close(); err != nil {
		return err
	}
	traced, err := newReplayer()
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced.run(rec, seq, bodies)
	if err := traced.close(); err != nil {
		return err
	}

	self := rec.selfTimes()
	requests := float64(self["request"].Count)
	var layersUs, detectorUs float64
	for name, st := range self {
		perRequest := float64(st.Total) / requests / 1e3
		res.Extra["trace.self_us."+name] = metric{perRequest, "us"}
		if name == "request" {
			continue // the loop's own glue, not a layer
		}
		layersUs += perRequest
		switch name {
		case "core.verdict", "feat.score", "candidx.probe", "ssim.rescore":
			detectorUs += perRequest
		}
	}
	// The request spans' whole duration against the same requests'
	// untraced cost.
	var tracedNs int64
	for _, s := range rec.spans {
		if s.Parent == 0 {
			tracedNs += s.End - s.Start
		}
	}
	tracedMean := float64(tracedNs) / requests
	untracedMean := float64(untraced.wall.Nanoseconds()) / float64(untraced.requests)
	res.Layer["trace.overhead_share"] = metric{1 - safeDiv(untracedMean, tracedMean), "share"}
	// 1 − (Σ layer self time + hop) ÷ client mean, the hop being client
	// mean − handler mean.
	res.Layer["budget.unattributed_share"] = metric{safeDiv(handlerUs-layersUs, clientUs), "share"}
	res.Extra["trace.layers_us_per_request"] = metric{layersUs, "us"}
	res.Extra["trace.detector_share"] = metric{safeDiv(detectorUs, clientUs), "share"}
	res.Extra["trace.replay_untraced_us_per_request"] = metric{untracedMean / 1e3, "us"}
	res.Extra["trace.traced_requests"] = metric{requests, "count"}
	return rec.writeFile(traceFile(e, res.Workload))
}

// watchReplay pushes delta files through parse, match and the alert log
// in this process: per file one watch.parse span, then per chunk of
// events one watch.match span and one watch.alertlog.append span for the
// chunk's alerts.
func watchReplay(rec *recorder, k *layerKit, texts [][]byte, logPath string) (time.Duration, error) {
	log, err := watch.OpenAlertLog(logPath)
	if err != nil {
		return 0, err
	}
	const chunk = 256
	begin := time.Now()
	for _, text := range texts {
		root := 0
		if rec.on() {
			root = rec.begin("watch.file", 0, rec.nextRequest())
		}
		s := rec.begin("watch.parse", root, 0)
		d, err := watch.ParseDelta(bytes.NewReader(text))
		rec.end(s)
		if err != nil {
			log.Close()
			return 0, err
		}
		for at := 0; at < len(d.Events); at += chunk {
			end := at + chunk
			if end > len(d.Events) {
				end = len(d.Events)
			}
			var alerts []watch.Alert
			s = rec.begin("watch.match", root, 0)
			for _, ev := range d.Events[at:end] {
				if a, ok := k.matchEvent(ev); ok {
					alerts = append(alerts, a)
				}
			}
			rec.end(s)
			if len(alerts) == 0 {
				continue
			}
			s = rec.begin("watch.alertlog.append", root, 0)
			for _, a := range alerts {
				if err := log.Append(a); err != nil {
					log.Close()
					return 0, err
				}
			}
			rec.end(s)
		}
		s = rec.begin("watch.alertlog.sync", root, 0)
		err = log.Sync()
		rec.end(s)
		rec.end(root)
		if err != nil {
			log.Close()
			return 0, err
		}
	}
	took := time.Since(begin)
	return took, log.Close()
}

// matchEvent is the watch engine's per-event work through the public
// functions it is made of: skip drops and ASCII owners, decode, gate on
// the statistical prefilter, match.
func (k *layerKit) matchEvent(ev watch.Event) (watch.Alert, bool) {
	if ev.Op == watch.OpDrop || !strings.HasPrefix(ev.Owner, "xn--") {
		return watch.Alert{}, false
	}
	label, err := idna.ToUnicodeLabel(ev.Owner)
	if err != nil {
		return watch.Alert{}, false
	}
	origin := strings.TrimSuffix(ev.Origin, ".")
	if !k.orc.stat.PrefilterPass(k.orc.stat.ScoreLabel(label, ev.Owner, origin)) {
		return watch.Alert{}, false
	}
	m, ok := k.matcher.Match(label)
	if !ok {
		return watch.Alert{}, false
	}
	return watch.Alert{Serial: ev.Serial, Op: ev.Op.String(), Domain: ev.Domain(),
		Unicode: label + "." + ev.Origin, Brand: m.Brand, SSIM: m.SSIM, Subs: 1}, true
}
