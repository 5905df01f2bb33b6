package main

import (
	"fmt"
	"runtime"
	"sync"

	"idnlab/internal/api"
	"idnlab/internal/candidx"
	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// Correctness oracle: an in-process core.Classifier built from the same
// index and model files the servers load. Every answer a server gave must
// be byte-identical to the oracle's api.DetectResponse for the same
// domain, apart from the cached flag.

type oracle struct {
	ix   *candidx.Index
	stat *feat.Model
	cls  *core.Classifier
	memo map[string]api.DetectResponse
}

// loadOracle builds the oracle from the files the servers load.
func loadOracle(indexPath, statPath string) (*oracle, error) {
	ix, err := candidx.LoadFile(indexPath)
	if err != nil {
		return nil, fmt.Errorf("oracle: load index: %w", err)
	}
	stat, err := feat.LoadFile(statPath)
	if err != nil {
		return nil, fmt.Errorf("oracle: load stat model: %w", err)
	}
	return newOracle(ix, stat), nil
}

func newOracle(ix *candidx.Index, stat *feat.Model) *oracle {
	// The same construction idnserve uses with -index and -stat.
	cls := core.NewClassifier(core.DetectorConfig{TopK: 1000, Index: ix, Stat: stat})
	return &oracle{ix: ix, stat: stat, cls: cls, memo: make(map[string]api.DetectResponse)}
}

// classify is the answer a server owes for domain, as a batch item (an
// invalid name is an item-level error there).
func classify(cls *core.Classifier, domain string) api.DetectResponse {
	v, err := cls.VerdictFor(domain)
	if err != nil {
		return api.DetectResponse{Input: domain, Error: err.Error()}
	}
	return api.DetectResponse{Verdict: v, Flagged: v.Flagged()}
}

// learn computes the answers for every domain of ops not yet known,
// on all CPUs.
func (o *oracle) learn(ops []op) {
	var todo []string
	seen := make(map[string]struct{})
	for _, one := range ops {
		for _, d := range one.Domains {
			if _, ok := o.memo[d]; ok {
				continue
			}
			if _, ok := seen[d]; !ok {
				seen[d] = struct{}{}
				todo = append(todo, d)
			}
		}
	}
	out := make([]api.DetectResponse, len(todo))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cls := o.cls.Clone()
			for i := w; i < len(todo); i += workers {
				out[i] = classify(cls, todo[i])
			}
		}(w)
	}
	wg.Wait()
	for i, d := range todo {
		o.memo[d] = out[i]
	}
}

// response returns the learned answer for domain.
func (o *oracle) response(domain string) api.DetectResponse { return o.memo[domain] }

// expected is the body a server owes for one operation, hashed the way the
// generator hashes what it received.
func (o *oracle) expected(one op, buf []byte) (uint64, []byte, error) {
	var err error
	buf = buf[:0]
	if one.Batch {
		br := api.BatchResponse{Count: len(one.Domains), Results: make([]api.DetectResponse, len(one.Domains))}
		for i, d := range one.Domains {
			br.Results[i] = o.memo[d]
			if br.Results[i].Flagged {
				br.Flagged++
			}
		}
		buf, err = api.AppendBatchResponse(buf, &br)
	} else {
		r := o.memo[one.Domains[0]]
		buf, err = api.AppendDetectResponse(buf, &r)
	}
	if err != nil {
		return 0, buf, err
	}
	buf = append(buf, '\n') // the servers end every body with a newline
	h, _ := hashBody(buf)
	return h, buf, nil
}

// check compares every recorded answer with the oracle's and returns the
// number of failed operations: transport or status failures and verdict
// mismatches. The first few failures are described in detail.
func (o *oracle) check(ops []op, results []result) (failed int, detail []string) {
	o.learn(ops)
	var buf []byte
	for i := range ops {
		why := ""
		switch {
		case !results[i].OK:
			why = "no 200 answer"
		default:
			want, b, err := o.expected(ops[i], buf)
			buf = b
			if err != nil {
				why = "oracle cannot encode: " + err.Error()
			} else if want != results[i].Hash {
				why = "answer differs from the oracle's"
			}
		}
		if why != "" {
			failed++
			if len(detail) < 5 {
				detail = append(detail, fmt.Sprintf("op %d (%d domains, first %q): %s", i, len(ops[i].Domains), ops[i].Domains[0], why))
			}
		}
	}
	return failed, detail
}

// quality is flagged ÷ labelled over a set of labelled domains the
// oracle has learned (and the servers have been checked against).
type quality struct {
	Attacks, AttacksFlagged int
	Benign, BenignFlagged   int
}

func (q *quality) add(attack, flagged bool) {
	switch {
	case attack:
		q.Attacks++
		if flagged {
			q.AttacksFlagged++
		}
	default:
		q.Benign++
		if flagged {
			q.BenignFlagged++
		}
	}
}

func (q quality) recall() float64 { return safeDiv(float64(q.AttacksFlagged), float64(q.Attacks)) }

func (q quality) benignShare() float64 {
	return safeDiv(float64(q.BenignFlagged), float64(q.Benign))
}

func (o *oracle) qualityOf(sets ...[]labelled) quality {
	var q quality
	for _, set := range sets {
		for _, l := range set {
			q.add(l.Attack, o.memo[l.Domain].Flagged)
		}
	}
	return q
}
