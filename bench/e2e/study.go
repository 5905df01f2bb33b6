package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"time"

	"idnlab/internal/core"
	"idnlab/internal/zonegen"
)

// study_report: passes of `idnreport -json`, the paper in one command.
// Its one input is the universe, which is the fixed corpus, so -seed
// changes nothing on this workload.

// studyPass is one idnreport run.
type studyPass struct {
	pass
	out      []byte
	stageDPS map[string]float64
}

// The stage lines `idnreport -metrics` prints for the two corpus scans.
var reStageDPS = map[string]*regexp.Regexp{
	"homograph": regexp.MustCompile(`stage=homograph .* throughput=(\d+)/s`),
	"semantic":  regexp.MustCompile(`stage=semantic .* throughput=(\d+)/s`),
}

func runStudyPass(e *env, sup *supervisor, tag string, scale int) (*studyPass, error) {
	var out bytes.Buffer
	timed, p, err := timePass(func() (*proc, error) {
		return sup.run("idnreport-"+tag, nil, &out, e.tool("idnreport"),
			"-scale", strconv.Itoa(scale), "-seed", strconv.Itoa(corpusSeed), "-json", "-metrics")
	})
	if err != nil {
		return nil, err
	}
	pass := &studyPass{pass: timed, out: out.Bytes(), stageDPS: map[string]float64{}}
	for stage, re := range reStageDPS {
		if m := p.log.find(re); m != nil {
			pass.stageDPS[stage], _ = strconv.ParseFloat(m[1], 64) // the pattern admits digits only
		}
	}
	return pass, nil
}

// studyOracle runs the same study in-process on the corpus's registry,
// timing its stages, and returns the JSON it renders.
func studyOracle(reg *zonegen.Registry, rec *recorder, request int) ([]byte, error) {
	root := rec.begin("study.pass", 0, request)
	sp := rec.begin("core.assemble", root, 0)
	ds, err := core.Assemble(reg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("core.study_run", root, 0)
	var out bytes.Buffer
	err = core.NewStudy(ds).WriteJSON(&out)
	rec.end(sp)
	rec.end(root)
	return out.Bytes(), err
}

func runStudy(e *env) (*runResult, error) {
	res := newResult(wlStudy, e.seed)
	begin := time.Now()
	sup, err := newSupervisor(e.ctx, e.tmp)
	if err != nil {
		return nil, err
	}
	defer sup.close()

	// The ground truth. Generating it is also the probe for what the
	// universe generator costs inside a pass.
	genBegin := time.Now()
	reg := zonegen.Generate(zonegen.Config{Seed: corpusSeed, Scale: e.size.StudyScale})
	generate := time.Since(genBegin)
	labels := reg.Labels()
	inputs := time.Since(begin)
	// One small unmeasured pass, so the first measured one does not pay
	// for a cold binary.
	if _, err := runStudyPass(e, sup, "warmup", 50*e.size.StudyScale); err != nil {
		return nil, err
	}
	setup := time.Since(begin)

	var passes []*studyPass
	timed, selfStats, err := batchPhase(e.size.StudyPasses, func(i int) (pass, error) {
		p, err := runStudyPass(e, sup, strconv.Itoa(i), e.size.StudyScale)
		if err != nil {
			return pass{}, err
		}
		passes = append(passes, p)
		return p.pass, nil
	})
	if err != nil {
		return nil, err
	}

	// Judged after the phase: every pass must have printed the report the
	// in-process study renders for the same universe.
	rec := newRecorder()
	request := rec.nextRequest()
	rec.addRoot("zonegen.generate", request, generate.Nanoseconds()) // measured above, before the phase
	want, err := studyOracle(reg, rec, request)
	if err != nil {
		return nil, err
	}
	domains := len(reg.Domains)
	res.Attempted = len(passes) * domains
	for i, p := range passes {
		if !bytes.Equal(p.out, want) {
			res.Failed += domains
			res.Failures = append(res.Failures, fmt.Sprintf("pass %d: report differs from the in-process study's (%d bytes, %d expected)", i, len(p.out), len(want)))
		}
	}
	var report core.Results
	if err := json.Unmarshal(want, &report); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	found := make(map[string]bool)
	for _, m := range report.Homographs.Matches {
		found[m.Domain] = true
	}
	for _, m := range report.Semantic.Matches {
		found[m.Domain] = true
	}
	var q quality
	for _, l := range labels {
		q.add(l.Positive, found[l.ACE])
	}

	var homoDPS, semDPS []float64
	for _, p := range passes {
		homoDPS = append(homoDPS, p.stageDPS["homograph"])
		semDPS = append(semDPS, p.stageDPS["semantic"])
	}
	passMs := batchMetrics(res, timed, domains, setup, selfStats, q)
	res.Layer["pipeline.scan_homograph_dps"] = metric{median(homoDPS), "1/s"}
	res.Layer["pipeline.scan_semantic_dps"] = metric{median(semDPS), "1/s"}
	// Where a pass's time goes, from the same stages run in-process.
	self := rec.selfTimes()
	for _, stage := range []string{"zonegen.generate", "core.assemble", "core.study_run"} {
		res.Layer[stage+"_share"] = metric{float64(self[stage].Total) / 1e6 / passMs, "share"}
		res.Extra[stage+"_s"] = metric{float64(self[stage].Total) / 1e9, "s"}
	}
	setupParts(res, inputs, 0, 0, setup-inputs)
	if e.trace {
		// The stages above are the whole trace of a pass: four spans, whose
		// recording costs nothing measurable (overhead 0).
		res.Layer["budget.unattributed_share"] = metric{1 - float64(self["zonegen.generate"].Total+self["core.assemble"].Total+self["core.study_run"].Total)/1e6/passMs, "share"}
		res.Layer["trace.overhead_share"] = metric{0, "share"}
		if err := rec.writeFile(traceFile(e, wlStudy)); err != nil {
			return nil, err
		}
		if err := studyProbes(e, res, sup, reg); err != nil {
			return nil, err
		}
	}
	return res, sup.stop() // every pass has exited; this only confirms it
}

// studyProbes runs the layer probes on a sample of the universe, with
// the index and model a deployment would build for it.
func studyProbes(e *env, res *runResult, sup *supervisor, reg *zonegen.Registry) error {
	c := newCorpus(reg, 0)
	art, err := buildArtifacts(e, sup, c)
	if err != nil {
		return err
	}
	orc, err := loadOracle(art.Index, art.Stat)
	if err != nil {
		return err
	}
	n := probeSample
	if n > len(c.Domains) {
		n = len(c.Domains)
	}
	sample := domainsOf(c.hotSlice(n))
	orc.learn([]op{{Domains: sample}})
	kit, err := newLayerKit(orc)
	if err != nil {
		return err
	}
	return probeLayers(res, kit, sample, sup.dir)
}
