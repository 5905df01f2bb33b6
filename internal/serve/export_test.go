package serve

import (
	"context"

	"idnlab/internal/core"
)

// Get returns the cached verdict for key, promoting it to most recently
// used. It never blocks on an in-flight computation.
func (c *VerdictCache) Get(key string) (core.Verdict, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
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

// WaitWarm blocks until warm-up completes or ctx is cancelled.
func (s *Server) WaitWarm(ctx context.Context) error {
	select {
	case <-s.warmed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
