package main

import (
	"hash/fnv"
	"math/rand"

	"idnlab/internal/zonegen"
)

// Deterministic input generators. Every workload is a fixed sequence of
// operations derived from -seed: the same seed gives the same sequence,
// byte for byte, and the programs under test see nothing else. The
// generators use math/rand with explicit sources, whose streams the Go 1
// compatibility promise keeps stable.

// op is one request: a single detect (one domain) or a batch.
type op struct {
	Domains []string
	Batch   bool
}

// sequence is a workload's whole operation list. The first Warm
// operations are sent and checked like the rest but are not measured.
type sequence struct {
	Ops  []op
	Warm int
}

// domainCount is the number of domains the operations from..to carry.
func (s *sequence) domainCount(from, to int) int {
	n := 0
	for _, o := range s.Ops[from:to] {
		n += len(o.Domains)
	}
	return n
}

// hash folds the whole sequence — domains, batch boundaries and the
// warm-up mark — into one number, for the determinism tests.
func (s *sequence) hash() uint64 {
	h := fnv.New64a()
	var sep = []byte{0}
	for i, o := range s.Ops {
		if i == s.Warm {
			h.Write([]byte{2})
		}
		for _, d := range o.Domains {
			h.Write([]byte(d))
			h.Write(sep)
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// Salts keep the streams of one seed independent of each other.
const (
	saltHot     = 0x686f74
	saltCold    = 0x636f6c64
	saltCluster = 0x636c7573
	saltWatch   = 0x7761746368
)

func newRand(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 ^ salt)))
}

// zipfCovering returns total indexes into a universe of n items: every
// index exactly once (the coverage entries, which make the set of
// requested items the same for every seed) plus zipf(1.1) draws over a
// seed-chosen ranking of the universe, all shuffled together. total must
// be at least n.
func zipfCovering(r *rand.Rand, n, total int) []int {
	rank := r.Perm(n)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	out := make([]int, 0, total)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	for len(out) < total {
		out = append(out, rank[z.Uint64()])
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotSingles is the serve_hot_singles sequence: warm+measured single
// detects over slice.
func hotSingles(slice []labelled, seed uint64, warm, measured int) *sequence {
	r := newRand(seed, saltHot)
	idx := zipfCovering(r, len(slice), warm+measured)
	s := &sequence{Warm: warm, Ops: make([]op, len(idx))}
	for i, k := range idx {
		s.Ops[i] = op{Domains: []string{slice[k].Domain}}
	}
	return s
}

const (
	coldBatchSize    = 256
	coldAttackPerReq = 77 // 30 % of 256
)

// coldBatch is the serve_cold_batch sequence: batches of 256 domains, of
// which 77 are drawn without replacement from the attack pool and the
// rest walk the whole corpus in a seed-chosen cyclic order. A corpus
// domain returns after len(corpus) benign positions and a pool entry
// after len(pool) attack positions, both further apart than one cache
// capacity, so every lookup misses.
func coldBatch(c *corpus, seed uint64, warm, measured int) *sequence {
	r := newRand(seed, saltCold)
	corpusOrder := r.Perm(len(c.Domains))
	poolOrder := r.Perm(len(c.Pool))
	s := &sequence{Warm: warm, Ops: make([]op, warm+measured)}
	ci, pi := 0, 0
	for i := range s.Ops {
		doms := make([]string, coldBatchSize)
		// The attack positions inside the batch are seed-chosen too.
		attackAt := r.Perm(coldBatchSize)[:coldAttackPerReq]
		isAttack := [coldBatchSize]bool{}
		for _, p := range attackAt {
			isAttack[p] = true
		}
		for j := range doms {
			if isAttack[j] {
				doms[j] = c.Pool[poolOrder[pi%len(poolOrder)]].Domain
				pi++
			} else {
				doms[j] = c.Domains[corpusOrder[ci%len(corpusOrder)]].Domain
				ci++
			}
		}
		s.Ops[i] = op{Domains: doms, Batch: true}
	}
	return s
}

const (
	clusterBatchSize = 64
	// One request in clusterPeriod is a batch of 64, the other 64 are
	// singles: half of the domains arrive each way.
	clusterPeriod = clusterBatchSize + 1
)

// clusterMixed is the cluster_durable_mixed sequence over domains
// domains in all: every slice domain once, attacks fresh pool entries
// (each sent once: a miss, a store append and a replication write) and
// zipf(1.1) draws over universe for the rest, shuffled and then cut into
// 64 singles + one batch of 64, repeated. warmDomains of them are
// warm-up.
func clusterMixed(slice, universe, pool []labelled, seed uint64, warmDomains, domains, attacks int) *sequence {
	r := newRand(seed, saltCluster)
	entries := make([]string, 0, domains)
	for _, d := range slice {
		entries = append(entries, d.Domain)
	}
	for _, k := range r.Perm(attacks) {
		entries = append(entries, pool[k].Domain)
	}
	rank := r.Perm(len(universe))
	z := rand.NewZipf(r, 1.1, 1, uint64(len(universe)-1))
	for len(entries) < domains {
		entries = append(entries, universe[rank[z.Uint64()]].Domain)
	}
	r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

	s := &sequence{}
	for at, req := 0, 0; at < len(entries); req++ {
		n := 1
		if req%clusterPeriod == clusterPeriod-1 {
			n = clusterBatchSize
		}
		if at+n > len(entries) {
			n = len(entries) - at
		}
		s.Ops = append(s.Ops, op{Domains: entries[at : at+n], Batch: n > 1})
		at += n
		if s.Warm == 0 && at >= warmDomains {
			s.Warm = len(s.Ops)
		}
	}
	return s
}

// deltaClones lays files delta files out of the generated days: file k
// clones a seed-chosen day (ground truth included) and carries serial
// SerialBase+k+1, so serials rise by one from file to file as the watch
// cursor requires.
func deltaClones(days []*zonegen.DayDelta, seed uint64, files int) []*zonegen.DayDelta {
	r := newRand(seed, saltWatch)
	out := make([]*zonegen.DayDelta, files)
	var order []int
	for k := range out {
		if k%len(days) == 0 {
			order = r.Perm(len(days))
		}
		clone := *days[order[k%len(days)]]
		clone.Serial = zonegen.SerialBase + uint32(k) + 1
		out[k] = &clone
	}
	return out
}
