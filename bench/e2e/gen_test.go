package main

import (
	"bytes"
	"sync"
	"testing"

	"idnlab/internal/watch"
	"idnlab/internal/zonegen"
)

// The tests share one small corpus: the generators do not depend on its
// size, and the full one takes seconds to build.
var testCorpus = sync.OnceValue(func() *corpus { return buildCorpusAt(400, 1500) })

func TestSequencesRepeatForASeedAndDifferAcrossSeeds(t *testing.T) {
	c := testCorpus()
	slice := c.hotSlice(512)
	gens := map[string]func(seed uint64) *sequence{
		"hot":  func(seed uint64) *sequence { return hotSingles(slice, seed, 100, 2000) },
		"cold": func(seed uint64) *sequence { return coldBatch(c, seed, 2, 20) },
		"cluster": func(seed uint64) *sequence {
			return clusterMixed(slice, c.Domains[:2000], c.Pool, seed, 300, 3000, 600)
		},
	}
	for name, gen := range gens {
		a, b, other := gen(7), gen(7), gen(8)
		if a.hash() != b.hash() {
			t.Errorf("%s: the same seed gave two different sequences", name)
		}
		if a.hash() == other.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		if a.Warm <= 0 || a.Warm >= len(a.Ops) {
			t.Errorf("%s: warm-up mark %d outside the %d operations", name, a.Warm, len(a.Ops))
		}
	}
}

func TestHotSequenceRequestsEverySliceDomain(t *testing.T) {
	slice := testCorpus().hotSlice(512)
	seen := map[string]bool{}
	for _, o := range hotSingles(slice, 3, 100, 2000).Ops {
		seen[o.Domains[0]] = true
	}
	for _, l := range slice {
		if !seen[l.Domain] {
			t.Fatalf("slice domain %q is never requested: the quality metrics would depend on the seed", l.Domain)
		}
	}
	if len(seen) != len(slice) {
		t.Fatalf("requested %d distinct domains from a slice of %d", len(seen), len(slice))
	}
}

func TestHotSliceHoldsEveryLabelledAttack(t *testing.T) {
	c := testCorpus()
	attacks := 0
	for _, l := range c.hotSlice(512) {
		if l.Attack {
			attacks++
		}
	}
	if attacks != len(c.Attacks) || attacks == 0 {
		t.Fatalf("slice holds %d attack domains, the corpus %d", attacks, len(c.Attacks))
	}
}

// minRepeatDistance is the smallest number of domain positions between
// two requests for the same domain.
func minRepeatDistance(s *sequence) int {
	last := map[string]int{}
	min, pos := int(^uint(0)>>1), 0
	for _, o := range s.Ops {
		for _, d := range o.Domains {
			if p, ok := last[d]; ok && pos-p < min {
				min = pos - p
			}
			last[d] = pos
			pos++
		}
	}
	return min
}

func TestColdSequenceNeverRepeatsInsideACacheWindow(t *testing.T) {
	c := testCorpus()
	// The window the small corpus guarantees: a pool entry returns after
	// len(pool) attack positions, a corpus domain after len(corpus)
	// benign ones.
	window := len(c.Pool) * coldBatchSize / coldAttackPerReq
	if w := len(c.Domains) * coldBatchSize / (coldBatchSize - coldAttackPerReq); w < window {
		window = w
	}
	s := coldBatch(c, 5, 4, 80)
	if got := minRepeatDistance(s); got < window-coldBatchSize {
		t.Fatalf("a domain repeats after %d positions, inside the window of %d", got, window)
	}
	// And the same arithmetic holds for the real sizes against the real
	// cache capacity (idnserve's default 65,536 entries).
	const cacheCapacity = 65536
	if poolSize*coldBatchSize/coldAttackPerReq <= cacheCapacity {
		t.Fatalf("pool of %d repeats inside one cache capacity", poolSize)
	}
	for _, o := range s.Ops {
		if len(o.Domains) != coldBatchSize || !o.Batch {
			t.Fatalf("cold operation with %d domains, batch=%v", len(o.Domains), o.Batch)
		}
	}
}

func TestAttackPoolIsDuplicateFreeAndLabelled(t *testing.T) {
	c := testCorpus()
	if len(c.Pool) != 1500 {
		t.Fatalf("pool has %d entries, want 1500", len(c.Pool))
	}
	corpus := map[string]bool{}
	for _, l := range c.Domains {
		corpus[l.Domain] = true
	}
	seen := map[string]bool{}
	for _, l := range c.Pool {
		if !l.Attack {
			t.Fatalf("pool entry %q carries no attack label", l.Domain)
		}
		if seen[l.Domain] || corpus[l.Domain] {
			t.Fatalf("pool entry %q is a duplicate", l.Domain)
		}
		seen[l.Domain] = true
	}
}

func TestClusterSequenceShape(t *testing.T) {
	c := testCorpus()
	slice := c.hotSlice(256)
	s := clusterMixed(slice, c.Domains[:2000], c.Pool, 9, 300, 3000, 600)
	singles, batched := 0, 0
	sent := map[string]int{}
	for _, o := range s.Ops {
		if o.Batch {
			batched += len(o.Domains)
		} else {
			singles += len(o.Domains)
		}
		for _, d := range o.Domains {
			sent[d]++
		}
	}
	if singles+batched != 3000 {
		t.Fatalf("sequence carries %d domains, want 3000", singles+batched)
	}
	if d := singles - batched; d < -2*clusterBatchSize || d > 2*clusterBatchSize {
		t.Fatalf("%d domains as singles, %d in batches: not half each way", singles, batched)
	}
	for _, l := range slice {
		if sent[l.Domain] == 0 {
			t.Fatalf("slice domain %q is never requested", l.Domain)
		}
	}
	for _, l := range c.Pool[:600] {
		if sent[l.Domain] != 1 {
			t.Fatalf("attack %q sent %d times, want once", l.Domain, sent[l.Domain])
		}
	}
	if s.domainCount(0, s.Warm) < 300 {
		t.Fatalf("warm-up carries %d domains, want at least 300", s.domainCount(0, s.Warm))
	}
}

func TestDeltaClonesParseAndKeepSerialOrder(t *testing.T) {
	gen := testCorpus().reg.DeltaStream(zonegen.DeltaConfig{AddsPerDay: 200})
	days := []*zonegen.DayDelta{gen.Next(), gen.Next(), gen.Next()}
	files := deltaClones(days, 4, 8)
	again := deltaClones(days, 4, 8)
	for k, f := range files {
		if want := zonegen.SerialBase + uint32(k) + 1; f.Serial != want {
			t.Fatalf("file %d has serial %d, want %d", k, f.Serial, want)
		}
		if again[k].Day != f.Day {
			t.Fatalf("file %d clones day %d, then day %d, for the same seed", k, f.Day, again[k].Day)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		d, err := watch.ParseDelta(&buf)
		if err != nil {
			t.Fatalf("clone %d does not parse: %v", k, err)
		}
		if d.Serial != f.Serial || len(d.Events) == 0 {
			t.Fatalf("clone %d parsed to serial %d with %d events", k, d.Serial, len(d.Events))
		}
	}
	if days[0].Serial != zonegen.SerialBase+1 {
		t.Fatalf("cloning changed the generated day's serial to %d", days[0].Serial)
	}
}
