package serve

import (
	"sync"
	"sync/atomic"

	"idnlab/internal/core"
)

// VerdictCache is a sharded LRU cache of detection verdicts keyed by
// normalized ACE domain, with singleflight-style deduplication of
// concurrent identical lookups: when N requests for the same uncached
// key arrive together, exactly one computes the verdict and the other
// N−1 wait for its result instead of burning N−1 detector passes.
//
// Sharding bounds lock contention: each key hashes to one of S shards
// (S rounded up to a power of two), and each shard owns an independent
// mutex, LRU list and in-flight call table. Counters are process-wide
// atomics so Stats() is safe during traffic.
type VerdictCache struct {
	shards []cacheShard
	mask   uint64

	// writeThrough, when set, is called once per freshly computed
	// verdict (the singleflight leader path, outside any shard lock).
	// Warm inserts via Put do not re-enter the hook — that asymmetry is
	// what keeps replicated and recovered entries from being
	// re-replicated.
	writeThrough func(key string, v core.Verdict)

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one lock domain: an intrusive doubly-linked LRU over
// map entries plus the shard's in-flight call table.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[string]*cacheEntry
	head  *cacheEntry // most recently used
	tail  *cacheEntry // least recently used
	calls map[string]*inflight
}

type cacheEntry struct {
	key        string
	verdict    core.Verdict
	prev, next *cacheEntry
}

// inflight is one singleflight computation. Followers wait on done;
// the leader fills verdict/err before marking it done. A WaitGroup
// rather than a channel keeps a miss to one allocation for the call.
type inflight struct {
	done    sync.WaitGroup
	verdict core.Verdict
	err     error
}

// NewVerdictCache builds a cache holding up to capacity verdicts across
// shardCount shards (rounded up to a power of two).
// capacity <= 0 disables storage but keeps singleflight dedup.
func NewVerdictCache(capacity, shardCount int) *VerdictCache {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	perShard := capacity / n
	if capacity > 0 && perShard == 0 {
		perShard = 1
	}
	c := &VerdictCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[string]*cacheEntry)
		c.shards[i].calls = make(map[string]*inflight)
	}
	return c
}

// fnv1a hashes the key for shard selection (FNV-1a 64).
func fnv1a(s string) uint64 {
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

func (c *VerdictCache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)&c.mask]
}

// Do returns the verdict for key, computing it with compute on a miss.
// Concurrent Do calls for the same key share one computation: the first
// caller (the leader) runs compute, followers block until it finishes and
// receive the same verdict or error. Errors are not cached — the next
// request retries. hit reports whether the verdict came from cache or a
// coalesced in-flight computation rather than a fresh compute.
func (c *VerdictCache) Do(key string, compute func() (core.Verdict, error)) (v core.Verdict, hit bool, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.moveFront(e)
		v = e.verdict // under the lock: an eviction reuses the entry
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if call, ok := s.calls[key]; ok {
		s.mu.Unlock()
		call.done.Wait()
		c.coalesced.Add(1)
		return call.verdict, true, call.err
	}
	call := &inflight{}
	call.done.Add(1)
	s.calls[key] = call
	s.mu.Unlock()
	c.misses.Add(1)

	call.verdict, call.err = compute()

	// Write-through runs outside the shard lock: it appends to the warm
	// log's group-commit queue.
	if call.err == nil && c.writeThrough != nil {
		c.writeThrough(key, call.verdict)
	}

	s.mu.Lock()
	delete(s.calls, key)
	if call.err == nil {
		s.store(key, call.verdict, c)
	}
	s.mu.Unlock()
	call.done.Done()
	return call.verdict, false, call.err
}

// SetWriteThrough attaches the durable write-through hook called for
// every freshly computed verdict. Attach before serving traffic.
func (c *VerdictCache) SetWriteThrough(fn func(key string, v core.Verdict)) {
	c.writeThrough = fn
}

// Put inserts a verdict that was computed elsewhere — warm-boot
// recovery, a replication frame or an anti-entropy record. It bypasses
// singleflight and the hit/miss counters: warm inserts are not lookups
// and must not distort the hit rate.
func (c *VerdictCache) Put(key string, v core.Verdict) {
	s := c.shard(key)
	s.mu.Lock()
	s.store(key, v, c)
	s.mu.Unlock()
}

// Peek reports whether key is cached without counting a hit or miss and
// without promoting the entry — replication and anti-entropy ingest
// probe with it, and probes must not perturb LRU order or the metrics
// the smoke tests assert on.
func (c *VerdictCache) Peek(key string) (core.Verdict, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	var v core.Verdict
	if ok {
		v = e.verdict
	}
	s.mu.Unlock()
	return v, ok
}

// store inserts under the shard lock. A full shard evicts its least
// recently used entry and reuses it for the new key, so an insert at
// capacity allocates nothing. A zero-capacity shard stores nothing.
func (s *cacheShard) store(key string, v core.Verdict, c *VerdictCache) {
	if s.cap <= 0 {
		return
	}
	if e, ok := s.items[key]; ok { // raced with another leader
		e.verdict = v
		s.moveFront(e)
		return
	}
	var e *cacheEntry
	if len(s.items) >= s.cap {
		e = s.tail
		s.unlink(e)
		delete(s.items, e.key)
		c.evictions.Add(1)
	} else {
		e = &cacheEntry{}
	}
	e.key, e.verdict = key, v
	s.items[key] = e
	s.pushFront(e)
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Len reports the number of cached verdicts across all shards.
func (c *VerdictCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].items)
		c.shards[i].mu.Unlock()
	}
	return n
}

// CacheStats is the cache's /metrics contribution.
type CacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Shards    int     `json:"shards"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
}

// Stats snapshots the counters. HitRate counts coalesced waits as hits
// (they did not run a detector pass).
func (c *VerdictCache) Stats() CacheStats {
	st := CacheStats{
		Size:      c.Len(),
		Capacity:  len(c.shards) * c.shards[0].cap,
		Shards:    len(c.shards),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
	served := st.Hits + st.Coalesced
	if total := served + st.Misses; total > 0 {
		st.HitRate = float64(served) / float64(total)
	}
	return st
}
