package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/core"
	"idnlab/internal/framelog"
	"idnlab/internal/vstore"
)

// Replica is a worker's side of the durable tier: how its verdict-cache
// partition survives the fleet's churn. Verdicts move between nodes by
// two flows only:
//
//   - Replication: every freshly computed verdict is offered to the
//     shipper for the key's other HRW candidate (R=2 total copies: the
//     owner's log + the replica's cache/log).
//   - Anti-entropy: on (re)join the worker streams each peer's log
//     suffix since its persisted watermark and ingests the records it is
//     owner or replica for, converging the downtime gap; afterwards it
//     re-syncs every SyncInterval to bound drift from dropped frames.
//
// A miss is never fetched from a peer: the detector recomputes it in
// about a microsecond, well under one loopback round trip.
//
// Both bodies are the store's own record frames, byte for byte what the
// sender's files hold (vstore.AppendFrame, Since; the receiver checks
// them with vstore.DecodeFrames): a replicate body is a run of frames,
// a since body a sinceHeader then the page's frames.
//
// Every placement decision uses the attached Peer's ring and identity.
// The worker is seen only as a Cache; the two endpoints below and their
// bodies are known to this file and the shipper alone.
type Replica struct {
	cfg   ReplicaConfig
	cache Cache
	store *vstore.Store // nil on a memory-only node
	peer  atomic.Pointer[Peer]
	ship  *shipper

	replicationIn atomic.Uint64
	syncRounds    atomic.Uint64
	syncIngested  atomic.Uint64
	syncSkipped   atomic.Uint64
	syncErrors    atomic.Uint64

	// savedWM is peers.json as last read or written by the anti-entropy
	// loop, so a round that moved no watermark replaces no file.
	savedWM []byte
}

const (
	replicatePath = "/v1/store/replicate"
	sincePath     = "/v1/store/since"

	// maxPeerBody bounds a peer's request body: a full replicate batch is
	// well under it.
	maxPeerBody = 1 << 20

	syncPageSize = 2048
	syncMaxPages = 32

	// sinceHeader is the since body's fixed header: u64le durable, then
	// one byte, 1 when more records follow the page and 0 when not.
	sinceHeader = 9
)

// Cache is the worker's verdict cache as the Replica sees it.
// Peek must not perturb hit/miss counters or LRU order; Put inserts warm
// without re-entering the write-through hook (which is what keeps
// ingested verdicts from being re-replicated).
type Cache interface {
	Peek(key string) (core.Verdict, bool)
	Put(key string, v core.Verdict)
}

// ReplicaConfig parameterizes a Replica; the zero value selects the
// defaults.
type ReplicaConfig struct {
	// SyncInterval is the anti-entropy re-sync cadence after the initial
	// rejoin round (default 15s).
	SyncInterval time.Duration
}

// ReplicaStats is the Replica's /metrics contribution, flattened into
// the worker's store block next to vstore.Stats.
type ReplicaStats struct {
	ReplicationIn      uint64 `json:"replicationIn"`
	ReplicationOut     uint64 `json:"replicationOut"`
	ReplicationDropped uint64 `json:"replicationDropped"`
	ReplicationErrors  uint64 `json:"replicationErrors"`
	SyncRounds         uint64 `json:"syncRounds"`
	SyncIngested       uint64 `json:"syncIngested"`
	SyncSkipped        uint64 `json:"syncSkipped"`
	SyncErrors         uint64 `json:"syncErrors"`
}

// NewReplica builds the replica over the worker's cache and (optional)
// store. Without a store it is a cache-only replica: it accepts
// replication frames, but has no log to stream or sync into.
func NewReplica(cfg ReplicaConfig, cache Cache, store *vstore.Store) *Replica {
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 15 * time.Second
	}
	return &Replica{cfg: cfg, cache: cache, store: store, ship: &shipper{ch: make(chan shipItem, shipQueueSize)}}
}

// Attach gives the replica its membership client; until then Offer is
// inert.
func (r *Replica) Attach(p *Peer) { r.peer.Store(p) }

// Stats snapshots the counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		ReplicationIn:      r.replicationIn.Load(),
		ReplicationOut:     r.ship.out.Load(),
		ReplicationDropped: r.ship.dropped.Load(),
		ReplicationErrors:  r.ship.errs.Load(),
		SyncRounds:         r.syncRounds.Load(),
		SyncIngested:       r.syncIngested.Load(),
		SyncSkipped:        r.syncSkipped.Load(),
		SyncErrors:         r.syncErrors.Load(),
	}
}

// Register mounts the two peer endpoints. They sit outside the worker's
// instrumented routes: replication frames and sync pages must not
// pollute the client-facing latency histogram, status counters or rate
// cap.
func (r *Replica) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+replicatePath, r.handleReplicate)
	mux.HandleFunc("GET "+sincePath, r.handleSince)
}

// Run ships replication frames and runs the anti-entropy loop until ctx
// is cancelled. Start it alongside Peer.Run on workers that have both a
// store and a gateway.
func (r *Replica) Run(ctx context.Context) {
	if r.store == nil {
		return
	}
	done := make(chan struct{})
	go func() { defer close(done); r.ship.run(ctx) }()
	r.runAntiEntropy(ctx)
	<-done
}

// --- Replication (owner → replica, async) -----------------------------

// Offer queues a freshly computed verdict, which the local store
// appended as seq, for its other candidate.
func (r *Replica) Offer(seq uint64, v core.Verdict) {
	p := r.peer.Load()
	if p == nil {
		return
	}
	others, ok := p.others(v.Domain)
	if !ok {
		r.ship.dropped.Add(1)
		return
	}
	for _, c := range others {
		r.ship.offer(c.Addr, vstore.Record{Seq: seq, Verdict: v})
	}
}

// ingest inserts an externally computed verdict (replication frame,
// anti-entropy record): append it to the local log, then insert warm.
// Cached keys are skipped, and a key the store holds is only warmed —
// deduping on the store, not the LRU, is what lets stores larger than
// their caches converge instead of re-appending each other's records.
func (r *Replica) ingest(v core.Verdict) bool {
	if v.Domain == "" {
		return false
	}
	if _, ok := r.cache.Peek(v.Domain); ok {
		return false
	}
	if r.store != nil {
		if r.store.Has(v.Domain) {
			r.cache.Put(v.Domain, v)
			return false
		}
		r.store.Append(v)
	}
	r.cache.Put(v.Domain, v)
	return true
}

// handleReplicate receives the shipper's frames: each record is a
// verdict the sender computed for a key this node is a candidate for.
// The sender's seq means nothing here and is ignored.
func (r *Replica) handleReplicate(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxPeerBody))
	if err != nil {
		api.WriteJSON(w, http.StatusRequestEntityTooLarge, api.ErrorResponse{Error: err.Error()})
		return
	}
	recs, err := vstore.DecodeFrames(body)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	accepted := 0
	for _, rec := range recs {
		if r.ingest(rec.Verdict) {
			accepted++
		}
	}
	r.replicationIn.Add(uint64(accepted))
	api.WriteJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// --- Anti-entropy (log-suffix streaming on rejoin) --------------------

// handleSince streams the log suffix after ?seq=N: the header, then the
// store's frames as Since copies them. Page size is bounded; more tells
// the caller to come back with the last record's sequence.
func (r *Replica) handleSince(w http.ResponseWriter, req *http.Request) {
	if r.store == nil {
		api.WriteJSON(w, http.StatusNotFound, api.ErrorResponse{Error: "no durable store on this node"})
		return
	}
	// Both parameters come from outside the process: anything that is not
	// a whole decimal number is refused, never read as its numeric prefix.
	var after uint64
	if v := req.URL.Query().Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "bad seq"})
			return
		}
		after = n
	}
	max := syncPageSize
	if v := req.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "bad max"})
			return
		}
		if n > 0 && n < syncPageSize { // out of range: serve the full page size
			max = n
		}
	}
	body, durable, more, err := r.store.Since(make([]byte, sinceHeader, 64<<10), after, max)
	if err != nil {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
		return
	}
	binary.LittleEndian.PutUint64(body, durable)
	if more {
		body[8] = 1
	}
	w.Write(body)
}

// runAntiEntropy performs an initial sync as soon as the worker has a
// populated view (the rejoin path: warm boot covers everything up to
// the crash, this covers the downtime gap), then re-syncs every
// SyncInterval.
func (r *Replica) runAntiEntropy(ctx context.Context) {
	p := r.peer.Load()
	if p == nil {
		return
	}
	wm := r.loadWatermarks()
	// Wait for the first joined view before the initial round.
	for p.Ring() == nil {
		select {
		case <-ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	for {
		r.syncRound(ctx, p, wm)
		select {
		case <-ctx.Done():
			return
		case <-time.After(r.cfg.SyncInterval):
		}
	}
}

// syncRound streams each live peer's suffix and ingests the records
// this node is a candidate for. Returns true when every peer was
// drained without error.
func (r *Replica) syncRound(ctx context.Context, p *Peer, wm map[string]uint64) bool {
	ring := p.Ring()
	if ring == nil {
		return false
	}
	clean := true
	for _, node := range p.Status().View.Nodes {
		if node.ID == p.NodeID() || node.State == StateDead || node.Addr == "" {
			continue
		}
		if !r.syncPeer(ctx, ring, p.NodeID(), node, wm) {
			clean = false
		}
		if ctx.Err() != nil {
			return false
		}
	}
	r.syncRounds.Add(1)
	if err := r.saveWatermarks(wm); err != nil {
		// Not fatal: the next round re-streams from the old watermarks
		// and ingest dedup absorbs the replay.
		r.syncErrors.Add(1)
	}
	return clean
}

// syncPeer drains one peer's suffix (bounded pages per round).
func (r *Replica) syncPeer(ctx context.Context, ring *Ring, self string, node NodeInfo, wm map[string]uint64) bool {
	for page := 0; page < syncMaxPages; page++ {
		path := fmt.Sprintf("%s?seq=%d&max=%d", sincePath, wm[node.ID], syncPageSize)
		rep, err := callWithin(ctx, 5*time.Second, http.MethodGet, node.Addr, path, nil)
		if err != nil {
			r.syncErrors.Add(1)
			return false
		}
		if rep.Status == http.StatusNotFound {
			rep.Release()
			return true // peer runs without a store; nothing to stream
		}
		var next uint64
		more := false
		if rep.Status == http.StatusOK {
			next, more, err = r.ingestPage(rep.Body, ring, self, wm[node.ID])
		} else {
			err = fmt.Errorf("since %s: status %d", node.Addr, rep.Status)
		}
		rep.Release()
		if err != nil {
			r.syncErrors.Add(1)
			return false
		}
		wm[node.ID] = next
		if !more {
			return true
		}
	}
	return true // budget exhausted this round; the next round resumes
}

// ingestPage decodes one since page fetched with cursor after, ingests
// the records self is an R=2 candidate for — the placement filter that
// keeps anti-entropy from copying the whole cluster onto every node —
// and returns the cursor for the next fetch. The page is peer-supplied,
// so it is checked whole before anything is ingested:
//
//   - the header is whole and every frame checks and decodes, up to the
//     body's last byte: a short or torn body is refused, never cut as a
//     crashed file's tail is;
//   - record seqs ascend strictly above after and never pass the page's
//     own durable mark, so the cursor never moves backwards or runs
//     ahead of what the peer says it holds;
//   - a page that asks to be continued (more) carries records, so every
//     continued page advances the cursor;
//   - a durable mark below after means the peer's log restarted (a wiped
//     store directory): the cursor resets to 0 and the round ends, so
//     the next round re-streams the whole log and ingest dedups the
//     replay.
func (r *Replica) ingestPage(body []byte, ring *Ring, self string, after uint64) (next uint64, more bool, err error) {
	if len(body) < sinceHeader || body[8] > 1 {
		return after, false, fmt.Errorf("since page after %d: no valid %d-byte header", after, sinceHeader)
	}
	durable, more := binary.LittleEndian.Uint64(body), body[8] == 1
	recs, err := vstore.DecodeFrames(body[sinceHeader:])
	if err != nil {
		return after, false, fmt.Errorf("since page after %d: %w", after, err)
	}
	prev := after
	for _, rec := range recs {
		if rec.Seq <= prev || rec.Seq > durable {
			return after, false, fmt.Errorf("since page after %d: record seq %d out of order (previous %d, durable %d)", after, rec.Seq, prev, durable)
		}
		prev = rec.Seq
	}
	if durable < after {
		return 0, false, nil
	}
	if more && len(recs) == 0 {
		return after, false, fmt.Errorf("since page after %d: more with no records", after)
	}
	for _, rec := range recs {
		if candidateFor(ring, rec.Verdict.Domain, self) && r.ingest(rec.Verdict) {
			r.syncIngested.Add(1)
		} else {
			r.syncSkipped.Add(1)
		}
	}
	if !more {
		return durable, false, nil
	}
	return prev, true, nil
}

// candidateFor reports whether self is in key's R=2 candidate list.
func candidateFor(ring *Ring, key, self string) bool {
	if key == "" {
		return false
	}
	for _, c := range ring.Candidates(key, 2) {
		if c.ID == self {
			return true
		}
	}
	return false
}

// Watermarks persist per-peer sync cursors across restarts in the store
// directory's peers.json, replaced atomically like the snapshot, and
// only when a round moved one: a replace costs tens of milliseconds on
// a volume that frees the old file's blocks. Losing the file is safe —
// the next round re-streams from zero and ingest dedup absorbs the
// replay.
func (r *Replica) watermarkPath() string {
	return filepath.Join(r.store.Stats().Dir, "peers.json")
}

func (r *Replica) loadWatermarks() map[string]uint64 {
	r.savedWM = nil
	wm := make(map[string]uint64)
	buf, err := os.ReadFile(r.watermarkPath())
	if err != nil {
		return wm
	}
	// A JSON null decodes without error and leaves the map nil; the
	// sync loop writes to what this returns.
	if json.Unmarshal(buf, &wm) != nil || wm == nil {
		return make(map[string]uint64)
	}
	r.savedWM = buf
	return wm
}

func (r *Replica) saveWatermarks(wm map[string]uint64) error {
	buf, err := json.Marshal(wm)
	if err != nil || bytes.Equal(buf, r.savedWM) {
		return err
	}
	err = framelog.ReplaceFile(r.watermarkPath(), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err == nil {
		r.savedWM = buf
	}
	return err
}
