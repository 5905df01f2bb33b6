package main

import (
	"bytes"
	"sync"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/brands"
	"idnlab/internal/candidx"
	"idnlab/internal/feat"
)

var testOracleParts = sync.OnceValues(func() (*candidx.Index, *feat.Model) {
	ix, err := candidx.Build(brands.TopK(200), candidx.BuildOptions{})
	if err != nil {
		panic(err)
	}
	stat, _, err := feat.Train(feat.FromLabeled(testCorpus().reg.Labels()), feat.TrainConfig{Seed: corpusSeed})
	if err != nil {
		panic(err)
	}
	return ix, stat
})

func testOracle() *oracle { return newOracle(testOracleParts()) }

// answer plays the server: the oracle's own body for op, with the cached
// flags the server would set.
func answer(t *testing.T, o *oracle, one op, cached bool) result {
	t.Helper()
	o.learn([]op{one})
	_, body, err := o.expected(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		body = bytes.ReplaceAll(body, cachedFalse, cachedTrue)
	}
	h, n := hashBody(body)
	return result{OK: true, Hash: h, Cached: n}
}

func TestOracleCountsACorruptedAnswer(t *testing.T) {
	o := testOracle()
	ops := []op{
		{Domains: []string{"xn--pple-43d.com"}},
		{Domains: []string{"example.com"}},
		{Domains: []string{"xn--pple-43d.com", "example.com", "xn--80ak6aa92e.com"}, Batch: true},
	}
	results := []result{answer(t, o, ops[0], false), answer(t, o, ops[1], true), answer(t, o, ops[2], true)}
	if results[1].Cached != 1 || results[2].Cached != 3 {
		t.Fatalf("counted %d and %d cached flags, want 1 and 3", results[1].Cached, results[2].Cached)
	}
	if failed, detail := o.check(ops, results); failed != 0 {
		t.Fatalf("faithful answers judged failed: %v", detail)
	}

	// A server that clears the homograph canary: same shape, wrong verdict.
	canary := o.response("xn--pple-43d.com")
	if !canary.Flagged {
		t.Fatal("the oracle does not flag the homograph canary")
	}
	wrong := canary
	wrong.Flagged = false
	wrong.Homograph = nil
	body, err := api.AppendDetectResponse(nil, &wrong)
	if err != nil {
		t.Fatal(err)
	}
	results[0].Hash, _ = hashBody(append(body, '\n'))
	failed, detail := o.check(ops, results)
	if failed != 1 || len(detail) != 1 {
		t.Fatalf("corrupted answer counted %d times (%v), want once", failed, detail)
	}

	// A transport failure is a failed operation too.
	results[2].OK = false
	if failed, _ := o.check(ops, results); failed != 2 {
		t.Fatalf("%d failed operations, want 2", failed)
	}
}

func TestHashBodyIgnoresOnlyTheCachedFlag(t *testing.T) {
	a, na := hashBody([]byte(`{"domain":"a.com","flagged":false,"cached":true}` + "\n"))
	b, nb := hashBody([]byte(`{"domain":"a.com","flagged":false,"cached":false}` + "\n"))
	c, _ := hashBody([]byte(`{"domain":"a.com","flagged":true,"cached":false}` + "\n"))
	if a != b || na != 1 || nb != 0 {
		t.Fatalf("cached flag changed the hash (%d flags vs %d)", na, nb)
	}
	if a == c {
		t.Fatal("a different verdict hashed the same")
	}
}

func TestQualityCountsByLabel(t *testing.T) {
	o := testOracle()
	set := []labelled{{"xn--pple-43d.com", true}, {"example.com", false}, {"example.org", false}}
	o.learn([]op{{Domains: domainsOf(set)}})
	q := o.qualityOf(set)
	if q.Attacks != 1 || q.AttacksFlagged != 1 || q.Benign != 2 || q.BenignFlagged != 0 {
		t.Fatalf("quality %+v", q)
	}
	if q.recall() != 1 || q.benignShare() != 0 {
		t.Fatalf("recall %v, benign share %v", q.recall(), q.benignShare())
	}
}
