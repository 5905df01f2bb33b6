package cluster

import "sync/atomic"

// Rendezvous (highest-random-weight) hashing over normalized ACE keys.
// Rendezvous beats a token ring here for three reasons that match the
// verdict-cache workload exactly:
//
//  1. Minimal disruption by construction: removing a node remaps only
//     the keys that node owned (expected 1/N of the keyspace), and
//     adding a node steals only the keys it now wins — no token
//     placement to tune, no virtual-node count to balance.
//  2. Determinism across restarts: ownership is a pure function of
//     (node IDs, key), so a restarted gateway computes the identical
//     assignment and the workers' partitioned caches stay warm.
//  3. A free failover order: sorting nodes by their per-key score gives
//     each key a stable candidate list; the router retries down that
//     list, so a key's fallback target is as deterministic as its owner.
//
// Scores mix a per-node ID hash with the key hash through a splitmix64
// finalizer — cheap (one multiply-xor chain per node per lookup, and
// node counts are small) and well distributed.

// ringNode is one member with its precomputed ID hash.
type ringNode struct {
	info NodeInfo
	h    uint64
}

// Ring is an immutable ownership table over a membership snapshot.
// Build with NewRing; lookups are safe for concurrent use.
type Ring struct {
	nodes []ringNode
}

// NewRing builds a ring over nodes. Order of the input is irrelevant:
// ownership depends only on the set of node IDs.
func NewRing(nodes []NodeInfo) *Ring {
	r := &Ring{nodes: make([]ringNode, len(nodes))}
	for i, n := range nodes {
		r.nodes[i] = ringNode{info: n, h: hash64(n.ID)}
	}
	return r
}

// ringCache holds the ring compiled for one membership epoch, so the
// gateway's router and a worker's peer rebuild it only when the epoch
// moves (steady state is one atomic load).
type ringCache struct {
	cur atomic.Pointer[epochRing]
}

type epochRing struct {
	epoch uint64
	ring  *Ring
}

// load returns the cached ring if it was compiled for epoch, else nil.
func (c *ringCache) load(epoch uint64) *Ring {
	if er := c.cur.Load(); er != nil && er.epoch == epoch {
		return er.ring
	}
	return nil
}

func (c *ringCache) store(epoch uint64, ring *Ring) *Ring {
	c.cur.Store(&epochRing{epoch: epoch, ring: ring})
	return ring
}

// Len reports the number of nodes in the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// score is the rendezvous weight of node h for key hash kh.
func score(kh, h uint64) uint64 { return mix64(kh ^ h) }

// Owner returns the node that owns key (the highest-score node), or
// ok=false on an empty ring. Ties (astronomically unlikely) break by
// node ID so ownership stays total and deterministic.
func (r *Ring) Owner(key string) (NodeInfo, bool) {
	if len(r.nodes) == 0 {
		return NodeInfo{}, false
	}
	kh := hash64(key)
	best := 0
	bestScore := score(kh, r.nodes[0].h)
	for i := 1; i < len(r.nodes); i++ {
		s := score(kh, r.nodes[i].h)
		if s > bestScore || (s == bestScore && r.nodes[i].info.ID < r.nodes[best].info.ID) {
			best, bestScore = i, s
		}
	}
	return r.nodes[best].info, true
}

// Candidates returns up to k nodes for key in descending score order:
// element 0 is the owner, the rest is the deterministic failover
// sequence the router walks on retries. k <= 0 selects all nodes.
func (r *Ring) Candidates(key string, k int) []NodeInfo {
	n := len(r.nodes)
	if n == 0 {
		return nil
	}
	if k <= 0 || k > n {
		k = n
	}
	kh := hash64(key)
	ss := make([]scoredNode, n)
	for i := range r.nodes {
		ss[i] = scoredNode{s: score(kh, r.nodes[i].h), i: i}
	}
	// Insertion sort by descending score (node counts are small; avoids
	// sort.Slice's closure allocation on the hot path).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && r.before(ss[j], ss[j-1]); j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
	out := make([]NodeInfo, k)
	for i := 0; i < k; i++ {
		out[i] = r.nodes[ss[i].i].info
	}
	return out
}

// scoredNode pairs a node index with its per-key rendezvous weight.
type scoredNode struct {
	s uint64
	i int
}

// before orders a ahead of b: descending score, ID tie-break.
func (r *Ring) before(a, b scoredNode) bool {
	if a.s != b.s {
		return a.s > b.s
	}
	return r.nodes[a.i].info.ID < r.nodes[b.i].info.ID
}

// hash64 is FNV-1a 64 — the same key hash family the verdict cache
// shards with, applied here to whole strings.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the splitmix64 finalizer: a fast bijective mixer that turns
// the xor of two hashes into a uniformly distributed weight.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
