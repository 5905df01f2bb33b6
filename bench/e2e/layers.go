package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
	"unicode/utf8"

	"idnlab/internal/api"
	"idnlab/internal/candidx"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/idna"
	"idnlab/internal/serve"
	"idnlab/internal/vstore"
	"idnlab/internal/watch"
	"idnlab/internal/zonegen"
)

// Layer probes: every traced run times each layer's public functions on
// a sample of the workload's own domains, in tight loops, whether or not
// the layer is on that workload's path. The numbers are comparable
// across workloads and say what one call costs on these inputs; the
// README's table says which layers a workload's requests cross.

const (
	probeSample = 16384 // domains per probe pass
	probeReps   = 5     // passes; the median is reported
)

// layerKit holds the layers' entry points, built from the same files the
// servers load.
type layerKit struct {
	orc       *oracle
	det       *core.HomographDetector
	matcher   *watch.Matcher
	brands    []string // brand labels by index id
	brandLens []int
	probe     candidx.Probe
}

func newLayerKit(orc *oracle) (*layerKit, error) {
	det := core.NewHomographDetector(0, core.WithIndex(orc.ix), core.WithStatModel(orc.stat))
	m, err := watch.NewMatcher(det)
	if err != nil {
		return nil, err
	}
	k := &layerKit{orc: orc, det: det, matcher: m}
	for _, b := range orc.ix.Brands() {
		k.brands = append(k.brands, b.Label())
		k.brandLens = append(k.brandLens, utf8.RuneCountInString(b.Label()))
	}
	return k, nil
}

// score is the feat layer's call for n, as Classifier.Verdict makes it;
// pass reports whether the prefilter lets the label through to the
// index probe.
func (k *layerKit) score(n core.NormalizedDomain) (pass bool) {
	raw := k.orc.stat.ScoreLabel(n.Label, idna.SLDLabel(n.ACE), idna.TLD(n.ACE))
	return k.orc.stat.PrefilterPass(raw)
}

// candidates is the candidx layer's call.
func (k *layerKit) candidates(label string) []uint32 {
	return k.orc.ix.Candidates(label, &k.probe)
}

// rescore is the ssim layer's work for one label: the bounded rescore of
// the probe's candidates, with the floor rising as the detector raises
// it. It returns the calls made and how many exited early.
func (k *layerKit) rescore(label string, cands []uint32) (calls, early int) {
	floor, best := k.det.Threshold(), -1.0
	labelLen := utf8.RuneCountInString(label)
	for _, id := range cands {
		if diff := labelLen - k.brandLens[id]; diff > 1 || diff < -1 {
			continue
		}
		calls++
		score, ok := k.det.ScoreBounded(label, k.brands[id], floor)
		if !ok {
			early++
		} else if score > best {
			best, floor = score, score
		}
	}
	return calls, early
}

// timeReps runs fn probeReps times and returns the median duration.
func timeReps(fn func()) time.Duration {
	d := make([]float64, probeReps)
	for i := range d {
		begin := time.Now()
		fn()
		d[i] = float64(time.Since(begin))
	}
	return time.Duration(median(d))
}

func perCall(d time.Duration, calls int) float64 {
	return safeDiv(float64(d.Nanoseconds()), float64(calls))
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// probeLayers measures every layer on sample (distinct domains the
// oracle has learned) and files the results under res.Layer. dir is
// scratch space for the layers that write files.
func probeLayers(res *runResult, k *layerKit, sample []string, dir string) error {
	set := func(name string, v float64, unit string) { res.Layer[name] = metric{v, unit} }
	n := len(sample)
	norm := make([]core.NormalizedDomain, 0, n)
	for _, d := range sample {
		if nd, err := core.Normalize(d); err == nil {
			norm = append(norm, nd)
		}
	}

	// api: the single and batch codecs on the workload's own bodies.
	reqBodies := make([][]byte, n)
	resps := make([]api.DetectResponse, n)
	for i, d := range sample {
		reqBodies[i] = api.AppendDetectRequest(nil, &api.DetectRequest{Domain: d})
		resps[i] = k.orc.response(d)
	}
	decode := func() {
		for _, b := range reqBodies {
			if _, err := api.DecodeDetect(bytes.NewReader(b)); err != nil {
				panic(err) // the body was encoded two lines up
			}
		}
	}
	var buf []byte
	encode := func() {
		for i := range resps {
			buf, _ = api.AppendDetectResponse(buf[:0], &resps[i]) // oracle verdicts are finite
		}
	}
	set("api.decode_request_ns", perCall(timeReps(decode), n), "ns")
	set("api.encode_response_ns", perCall(timeReps(encode), n), "ns")
	set("api.allocs_per_request", float64(mallocs(decode)+mallocs(encode))/float64(n), "count")

	var batchReq, batchResp [][]byte
	var batchResps []api.BatchResponse
	for at := 0; at < n; at += coldBatchSize {
		end := at + coldBatchSize
		if end > n {
			end = n
		}
		batchReq = append(batchReq, api.AppendBatchRequest(nil, &api.BatchRequest{Domains: sample[at:end]}))
		br := api.BatchResponse{Count: end - at, Results: resps[at:end]}
		batchResps = append(batchResps, br)
		b, _ := api.AppendBatchResponse(nil, &br)
		batchResp = append(batchResp, b)
	}
	set("api.decode_batch_ns_per_domain", perCall(timeReps(func() {
		for _, b := range batchReq {
			if _, err := api.DecodeBatch(bytes.NewReader(b), coldBatchSize); err != nil {
				panic(err)
			}
		}
	}), n), "ns")
	set("api.encode_batch_ns_per_domain", perCall(timeReps(func() {
		for i := range batchResps {
			buf, _ = api.AppendBatchResponse(buf[:0], &batchResps[i])
		}
	}), n), "ns")
	set("api.decode_batch_response_allocs", float64(mallocs(func() {
		for _, b := range batchResp {
			if _, err := api.DecodeBatchResponseBytes(b); err != nil {
				panic(err)
			}
		}
	}))/float64(len(batchResp)), "count")

	// core, feat, candidx, ssim: the miss path, every domain fresh.
	set("core.normalize_ns", perCall(timeReps(func() {
		for _, d := range sample {
			core.Normalize(d)
		}
	}), n), "ns")
	cls := k.orc.cls.Clone()
	verdict := timeReps(func() {
		for _, nd := range norm {
			cls.Verdict(nd)
		}
	})
	var idn []core.NormalizedDomain // what the feat layer sees
	var passed []string             // what the index sees
	for _, nd := range norm {
		if !nd.ASCII {
			idn = append(idn, nd)
			if k.score(nd) {
				passed = append(passed, nd.Label)
			}
		}
	}
	score := timeReps(func() {
		for _, nd := range idn {
			k.score(nd)
		}
	})
	hits, candTotal := 0, 0
	candLists := make([][]uint32, len(passed))
	probeTime := timeReps(func() {
		for _, l := range passed {
			k.candidates(l)
		}
	})
	for i, l := range passed {
		c := k.candidates(l)
		candLists[i] = append([]uint32(nil), c...)
		candTotal += len(c)
		if len(c) > 0 {
			hits++
		}
	}
	calls, early := 0, 0
	rescore := timeReps(func() {
		calls, early = 0, 0
		for i, l := range passed {
			c, e := k.rescore(l, candLists[i])
			calls, early = calls+c, early+e
		}
	})
	perDomain := func(d time.Duration) float64 { return perCall(d, len(norm)) }
	set("core.verdict_ns", perDomain(verdict), "ns")
	self := perDomain(verdict) - perDomain(score) - perDomain(probeTime) - perDomain(rescore)
	if self < 0 {
		self = 0
	}
	set("core.verdict_self_ns", self, "ns")
	set("feat.score_ns", perCall(score, len(idn)), "ns")
	set("feat.shed_share", 1-safeDiv(float64(len(passed)), float64(len(idn))), "share")
	set("candidx.probe_ns", perCall(probeTime, len(passed)), "ns")
	set("candidx.hit_share", safeDiv(float64(hits), float64(len(passed))), "share")
	set("candidx.candidates_per_probe", safeDiv(float64(candTotal), float64(len(passed))), "count")
	set("ssim.rescore_ns", perCall(rescore, calls), "ns")
	set("ssim.rescores_per_domain", safeDiv(float64(calls), float64(len(norm))), "count")
	set("ssim.early_exit_share", safeDiv(float64(early), float64(calls)), "share")

	// serve: the verdict cache at capacity, read and written.
	cache := serve.NewVerdictCache(65536, 16)
	fill := func(key string) {
		cache.Do(key, func() (core.Verdict, error) { return core.Verdict{Domain: key}, nil })
	}
	for i := 0; i < 2*65536; i++ { // uneven shards are full after two capacities
		fill(fmt.Sprintf("fill-%d.example", i))
	}
	resident := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resident = append(resident, fmt.Sprintf("fill-%d.example", 2*65536-1-i))
	}
	set("serve.cache_hit_ns", perCall(timeReps(func() {
		for _, key := range resident {
			fill(key)
		}
	}), n), "ns")
	absent := make([]string, n*probeReps) // every insert is a new key and evicts an old one
	for i := range absent {
		absent[i] = fmt.Sprintf("absent-%d.example", i)
	}
	set("serve.cache_miss_insert_ns", perCall(timeReps(func() {
		for _, key := range absent[:n] {
			fill(key)
		}
		absent = absent[n:]
	}), n), "ns")

	// cluster: ring ownership of each key.
	ring := cluster.NewRing([]cluster.NodeInfo{{ID: "w1"}, {ID: "w2"}})
	set("cluster.ring_owner_ns", perCall(timeReps(func() {
		for _, nd := range norm {
			ring.Owner(nd.ACE)
		}
	}), len(norm)), "ns")

	// vstore: appends with the group commit running, one sync at the end.
	st, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "probe-store")})
	if err != nil {
		return err
	}
	begin := time.Now()
	for i := range resps {
		st.Append(resps[i].Verdict)
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return err
	}
	appendTook := time.Since(begin)
	ss := st.Stats()
	if err := st.Close(); err != nil {
		return err
	}
	set("vstore.append_ns", perCall(appendTook, n), "ns")
	set("vstore.bytes_per_record", safeDiv(float64(ss.LogBytes), float64(ss.Appends)), "B")
	set("vstore.frames_per_commit", safeDiv(float64(ss.Appends), float64(ss.Commits)), "count")

	// watch: the sample as one delta file, parsed, matched and logged.
	text, err := sampleDelta(norm)
	if err != nil {
		return err
	}
	parse := timeReps(func() {
		if _, err := watch.ParseDelta(bytes.NewReader(text)); err != nil {
			panic(err) // checked once below
		}
	})
	if _, err := watch.ParseDelta(bytes.NewReader(text)); err != nil {
		return fmt.Errorf("probe delta does not parse: %w", err)
	}
	set("watch.parse_mb_per_s", safeDiv(float64(len(text))/1e6, parse.Seconds()), "MB/s")
	set("watch.match_ns", perCall(timeReps(func() {
		for _, nd := range idn {
			k.matcher.Match(nd.Label)
		}
	}), len(idn)), "ns")
	log, err := watch.OpenAlertLog(filepath.Join(dir, "probe-alerts.log"))
	if err != nil {
		return err
	}
	begin = time.Now()
	for i, nd := range norm {
		if err := log.Append(watch.Alert{Serial: uint32(i), Op: "add", Domain: nd.ACE, Unicode: nd.Unicode, Brand: "example.com", SSIM: 1, Subs: 1}); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return err
	}
	logTook := time.Since(begin)
	ls := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	set("watch.alertlog_append_ns", perCall(logTook, len(norm)), "ns")
	set("watch.alertlog_frames_per_commit", ls.AvgBatch(), "count")
	return os.RemoveAll(filepath.Join(dir, "probe-store"))
}

// sampleDelta serializes the sample as one day's registrations in the
// delta format idnwatch reads.
func sampleDelta(norm []core.NormalizedDomain) ([]byte, error) {
	zones := map[string]*zonegen.ZoneDelta{}
	var order []string
	for _, nd := range norm {
		owner, origin, ok := strings.Cut(nd.ACE, ".")
		if !ok || strings.Contains(origin, ".") {
			continue // deltas carry second-level names only
		}
		z := zones[origin]
		if z == nil {
			z = &zonegen.ZoneDelta{Origin: origin}
			zones[origin] = z
			order = append(order, origin)
		}
		z.Records = append(z.Records, zonegen.DeltaRecord{Op: zonegen.DeltaAdd, Owner: owner, NS: "dns-host.net"})
	}
	day := &zonegen.DayDelta{Day: 1, Serial: zonegen.SerialBase + 1}
	for _, o := range order {
		day.Zones = append(day.Zones, *zones[o])
	}
	var buf bytes.Buffer
	_, err := day.WriteTo(&buf)
	return buf.Bytes(), err
}
