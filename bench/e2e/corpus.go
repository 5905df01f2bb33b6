package main

import (
	"idnlab/internal/zonegen"
)

// The corpus is a fixed data set: it is generated from corpusSeed, never
// from -seed. -seed drives every sequence drawn from it (order, zipf
// ranks, attack draws). A universe at scale 20 holds ~150 labelled attack
// domains, so a universe that changed with the seed would move
// attack_recall by whole percents between runs; with a fixed corpus the
// quality metrics are properties of the detectors alone.
const (
	corpusSeed  = 2018
	corpusScale = 20 // 73.6k IDNs + 60k non-IDNs; larger scales are super-linear to generate

	// poolSize is the number of distinct labelled attack domains drawn
	// from the delta stream's ground truth. At a 30 % attack share one
	// cache-capacity window (65,536 domains) holds < 19,700 of them, so
	// cycling through poolSize entries never repeats one inside a window.
	poolSize = 24576
)

// labelled is one domain with its ground truth.
type labelled struct {
	Domain string // ACE form, as a client would send it
	Attack bool
}

// corpus is the base data set every request workload draws from.
type corpus struct {
	reg *zonegen.Registry
	// Domains is every labelled corpus domain in generation order
	// (blacklisted-but-structurally-benign names have no label and are
	// left out, as zonegen.Labels leaves them out).
	Domains []labelled
	// Attacks indexes the labelled attack domains inside Domains.
	Attacks []int
	// Pool is poolSize distinct labelled homograph registrations from
	// the delta stream, in generation order. None is in Domains.
	Pool []labelled
}

// buildCorpus generates the corpus; the attack pool only for the
// workloads that draw from it.
func buildCorpus(sz sizes, withPool bool) *corpus {
	pool := 0
	if withPool {
		pool = sz.PoolSize
	}
	return buildCorpusAt(sz.CorpusScale, pool)
}

// buildCorpusAt generates the corpus at a scale and pool size (the tests
// use a small one).
func buildCorpusAt(scale, pool int) *corpus {
	return newCorpus(zonegen.Generate(zonegen.Config{Seed: corpusSeed, Scale: scale}), pool)
}

// newCorpus labels a generated registry.
func newCorpus(reg *zonegen.Registry, pool int) *corpus {
	c := &corpus{reg: reg}
	for _, l := range reg.Labels() {
		if l.Positive {
			c.Attacks = append(c.Attacks, len(c.Domains))
		}
		c.Domains = append(c.Domains, labelled{Domain: l.ACE, Attack: l.Positive})
	}
	if pool > 0 {
		c.Pool = attackPool(reg, pool)
	}
	return c
}

// attackPool draws n distinct attack registrations from one day of a
// delta stream that registers almost nothing else. The stream never
// re-registers a name, so the pool is duplicate-free by construction and
// every entry carries DeltaRecord.Attack as its label.
func attackPool(reg *zonegen.Registry, n int) []labelled {
	gen := reg.DeltaStream(zonegen.DeltaConfig{
		AddsPerDay:      n + n/8,
		DropsPerDay:     1,
		NSChangesPerDay: 1,
		AttackShare:     0.999,
		AttackTopK:      1000,
	})
	pool := make([]labelled, 0, n)
	day := gen.Next()
	for _, z := range day.Zones {
		for _, r := range z.Records {
			if r.Op == zonegen.DeltaAdd && r.Attack != zonegen.AttackNone && len(pool) < n {
				pool = append(pool, labelled{Domain: r.Owner + "." + z.Origin, Attack: true})
			}
		}
	}
	return pool
}

// hotSlice is the fixed-membership slice the hit-dominated workloads
// draw from: every labelled attack domain of the corpus plus benign
// domains taken at a fixed stride through generation order (so IDN and
// ASCII populations are both present), n in all.
func (c *corpus) hotSlice(n int) []labelled {
	out := make([]labelled, 0, n)
	for _, i := range c.Attacks {
		out = append(out, c.Domains[i])
	}
	benign := len(c.Domains) - len(c.Attacks)
	want := n - len(out)
	seen := 0
	for _, d := range c.Domains {
		if d.Attack {
			continue
		}
		// Take benign domain number seen when it is the first one at or
		// past the next multiple of benign/want.
		if len(out) < n && seen*want/benign != (seen+1)*want/benign {
			out = append(out, d)
		}
		seen++
	}
	return out
}
