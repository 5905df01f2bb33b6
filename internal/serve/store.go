package serve

import (
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/vstore"
)

// Durable-store integration, the serving half: warm boot and
// write-through. The store compacts from its own files, so what is
// durable never depends on what this cache still holds. Everything a
// durable worker says to other nodes — replication, anti-entropy and
// the /v1/store/* endpoints — is the cluster.Replica built here, which
// sees this server only as its cache. The server touches it in three
// places: Offer in the write-through hook below, Register in Handler
// and Stats in storeStats. A miss never asks a peer: it goes to
// admission and the detector (server.go).

// StoreStats is the /metrics store block: the vstore counters plus the
// replica's replication and anti-entropy counters, flat in one JSON
// object. The store drill's budget assertions (internal/smoke)
// read exactly this block, never log lines.
type StoreStats struct {
	vstore.Stats
	cluster.ReplicaStats
}

func (s *Server) storeStats() StoreStats {
	st := StoreStats{ReplicaStats: s.replica.Stats()}
	if s.store != nil {
		st.Stats = s.store.Stats()
	}
	return st
}

// attachStore wires cfg.Store into the server at construction: the
// replica, warm boot (recovered records enter the cache before the
// listener opens, so a restarted worker serves its old partition warm
// instead of stampeding the SSIM path), the write-through hook (every
// freshly computed verdict is appended to the group-committed warm log
// and offered for replication).
func (s *Server) attachStore() {
	s.store = s.cfg.Store
	s.replica = cluster.NewReplica(s.cfg.Replica, s.cache, s.store)
	if s.store == nil {
		return
	}
	for _, r := range s.store.TakeRecovered() {
		s.cache.Put(r.Verdict.Domain, r.Verdict)
	}
	s.cache.SetWriteThrough(func(key string, v core.Verdict) {
		s.replica.Offer(s.store.Append(v), v)
	})
}

// CloseStore flushes and closes the durable store (idempotent, nil-safe).
// Call after Run returns — and in tests before restarting a worker on
// the same directory, so the old committer releases the files.
func (s *Server) CloseStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}
