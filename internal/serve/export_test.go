package serve

import (
	"context"

	"idnlab/internal/core"
)

// Get returns the cached verdict for key, promoting it to most recently
// used. It never blocks on an in-flight computation: a pending key
// misses.
func (c *VerdictCache) Get(key string) (core.Verdict, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	ok = ok && !e.pending
	var v core.Verdict
	if ok {
		s.moveFront(e)
		v = e.verdict // under the lock: an eviction reuses the entry
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return core.Verdict{}, false
}

// followed reports whether a follower waits on key's pending entry.
func (c *VerdictCache) followed(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	return ok && e.pending && e.call != nil
}

// WaitWarm blocks until warm-up completes or ctx is cancelled.
func (s *Server) WaitWarm(ctx context.Context) error {
	select {
	case <-s.warmed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
