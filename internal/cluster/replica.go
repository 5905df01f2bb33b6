package cluster

import (
	"context"
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
// partition survives the fleet's churn.
//
//   - Replication: every freshly computed verdict is offered to the
//     shipper for the key's other HRW candidate (R=2 total copies: the
//     owner's log + the replica's cache/log).
//   - Read-repair: a miss on a key whose candidate list names a live
//     peer probes that peer's cache before recomputing — a promoted
//     replica serves its warm copy, and a freshly rebooted owner
//     backfills from its replica.
//   - Anti-entropy: on (re)join the worker streams each peer's log
//     suffix since its persisted watermark and ingests the records it is
//     owner or replica for, converging the downtime gap; afterwards it
//     re-syncs every SyncInterval to bound drift from dropped frames.
//
// Every placement decision uses the attached Peer's ring and identity.
// The worker is seen only as a Cache; the three endpoints below and
// their body formats are known to this file alone.
type Replica struct {
	cfg   ReplicaConfig
	cache Cache
	store *vstore.Store // nil on a memory-only node
	peer  atomic.Pointer[Peer]
	ship  *shipper

	synced atomic.Bool // first anti-entropy round completed
	// Read-repair probe breakers: two consecutive probe failures silence
	// a peer for two seconds (it is most likely the dead node the view has
	// not yet demoted), then one probe is let through.
	brk breakerSet

	replicationIn atomic.Uint64
	repairPeeks   atomic.Uint64
	repairHits    atomic.Uint64
	repairMisses  atomic.Uint64
	syncRounds    atomic.Uint64
	syncIngested  atomic.Uint64
	syncSkipped   atomic.Uint64
	syncErrors    atomic.Uint64
}

const (
	replicatePath = "/v1/store/replicate"
	peekPath      = "/v1/store/peek"
	sincePath     = "/v1/store/since"

	// maxPeerBody bounds a peer's request body: a full replicate batch is
	// well under it.
	maxPeerBody = 1 << 20

	syncPageSize = 2048
	syncMaxPages = 32
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
	// ReplicateInterval is the shipper's flush cadence (default 25ms).
	ReplicateInterval time.Duration
	// SyncInterval is the anti-entropy re-sync cadence after the initial
	// rejoin round (default 15s).
	SyncInterval time.Duration
	// RepairTimeout bounds one read-repair peek (default 75ms — a probe
	// must stay well under the detector pass it tries to save).
	RepairTimeout time.Duration
	// Now overrides the read-repair breakers' clock for tests.
	Now func() time.Time
}

// ReplicaStats is the Replica's /metrics contribution, flattened into
// the worker's store block next to vstore.Stats.
type ReplicaStats struct {
	ReplicationIn      uint64 `json:"replicationIn"`
	ReplicationOut     uint64 `json:"replicationOut"`
	ReplicationDropped uint64 `json:"replicationDropped"`
	ReplicationErrors  uint64 `json:"replicationErrors"`
	RepairPeeks        uint64 `json:"repairPeeks"`
	RepairHits         uint64 `json:"repairHits"`
	RepairMisses       uint64 `json:"repairMisses"`
	SyncRounds         uint64 `json:"syncRounds"`
	SyncIngested       uint64 `json:"syncIngested"`
	SyncSkipped        uint64 `json:"syncSkipped"`
	SyncErrors         uint64 `json:"syncErrors"`
}

// NewReplica builds the replica over the worker's cache and (optional)
// store. Without a store it is a cache-only replica: it accepts
// replication frames and answers peeks, but has no log to stream, sync
// or repair into.
func NewReplica(cfg ReplicaConfig, cache Cache, store *vstore.Store) *Replica {
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 15 * time.Second
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = 75 * time.Millisecond
	}
	return &Replica{
		cfg: cfg, cache: cache, store: store, ship: newShipper(cfg.ReplicateInterval),
		brk: breakerSet{cfg: BreakerConfig{FailThreshold: 2, Cooldown: 2 * time.Second, Now: cfg.Now}},
	}
}

// Attach gives the replica its membership client; until then Offer and
// Fetch are inert.
func (r *Replica) Attach(p *Peer) { r.peer.Store(p) }

// Stats snapshots the counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		ReplicationIn:      r.replicationIn.Load(),
		ReplicationOut:     r.ship.out.Load(),
		ReplicationDropped: r.ship.dropped.Load(),
		ReplicationErrors:  r.ship.errs.Load(),
		RepairPeeks:        r.repairPeeks.Load(),
		RepairHits:         r.repairHits.Load(),
		RepairMisses:       r.repairMisses.Load(),
		SyncRounds:         r.syncRounds.Load(),
		SyncIngested:       r.syncIngested.Load(),
		SyncSkipped:        r.syncSkipped.Load(),
		SyncErrors:         r.syncErrors.Load(),
	}
}

// Register mounts the three peer endpoints. They sit outside the
// worker's instrumented routes: peer probes and replication frames must
// not pollute the client-facing latency histogram, status counters or
// rate cap.
func (r *Replica) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+replicatePath, r.handleReplicate)
	mux.HandleFunc("POST "+peekPath, r.handlePeek)
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

// Offer queues a freshly computed verdict for its other candidate.
func (r *Replica) Offer(v core.Verdict) {
	p := r.peer.Load()
	if p == nil {
		return
	}
	others, _, ok := p.others(v.Domain)
	if !ok {
		r.ship.dropped.Add(1)
		return
	}
	for _, c := range others {
		r.ship.offer(c.Addr, v)
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

// handleReplicate receives the shipper's frames: each result is a
// verdict the sender computed for a key this node is a candidate for.
func (r *Replica) handleReplicate(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxPeerBody))
	if err != nil {
		api.WriteJSON(w, http.StatusRequestEntityTooLarge, api.ErrorResponse{Error: err.Error()})
		return
	}
	br, err := api.DecodeBatchResponseBytes(body)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	accepted := 0
	for i := range br.Results {
		if br.Results[i].Error == "" && r.ingest(br.Results[i].Verdict) {
			accepted++
		}
	}
	r.replicationIn.Add(uint64(accepted))
	api.WriteJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// --- Read-repair (peek a peer's cache before recomputing) -------------

// handlePeek answers "is this key warm here" without computing: 200
// with the cached verdict, 404 otherwise.
func (r *Replica) handlePeek(w http.ResponseWriter, req *http.Request) {
	dr, err := api.DecodeDetect(http.MaxBytesReader(w, req.Body, maxPeerBody))
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := core.Normalize(dr.Domain)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	v, ok := r.cache.Peek(n.ACE)
	if !ok {
		api.WriteJSON(w, http.StatusNotFound, api.ErrorResponse{Error: "not cached"})
		return
	}
	api.WriteDetect(w, http.StatusOK, &api.DetectResponse{Verdict: v, Flagged: v.Flagged(), Cached: true})
}

// Fetch is the miss path's backfill probe: when this worker is not the
// key's steady-state owner (failover traffic landed here), or it has
// not yet completed a first anti-entropy round (fresh boot or rejoin),
// ask the key's other candidates for their warm copy before paying a
// detector pass. Bounded by RepairTimeout per probe and a per-peer
// breaker, so a dead candidate costs at most a couple of probes during
// the view-lag window.
func (r *Replica) Fetch(ace string) (core.Verdict, bool) {
	p := r.peer.Load()
	if r.store == nil || p == nil {
		return core.Verdict{}, false
	}
	others, owner, ok := p.others(ace)
	if !ok || (owner && r.synced.Load()) {
		// Steady-state owner miss: a genuinely new key. No peer can have
		// it (replication flows owner → replica), so probing is waste.
		return core.Verdict{}, false
	}
	probed := false
	for _, c := range others {
		brk := r.brk.get(c.ID)
		if !brk.Allow() {
			continue
		}
		probed = true
		r.repairPeeks.Add(1)
		v, ok, err := r.peek(c.Addr, ace)
		if err != nil {
			brk.Failure()
			continue
		}
		brk.Success()
		if ok {
			r.repairHits.Add(1)
			return v, true
		}
	}
	if probed {
		r.repairMisses.Add(1)
	}
	return core.Verdict{}, false
}

func (r *Replica) peek(addr, ace string) (core.Verdict, bool, error) {
	body := api.AppendDetectRequest(nil, &api.DetectRequest{Domain: ace})
	rep, err := callWithin(context.Background(), r.cfg.RepairTimeout, http.MethodPost, addr, peekPath, body)
	if err != nil {
		return core.Verdict{}, false, err
	}
	defer rep.Release() // the decoder copies every string out of Body
	if rep.Status == http.StatusNotFound {
		return core.Verdict{}, false, nil
	}
	if rep.Status != http.StatusOK {
		return core.Verdict{}, false, fmt.Errorf("peek %s: status %d", addr, rep.Status)
	}
	dr, err := api.DecodeDetectResponseBytes(rep.Body)
	if err != nil {
		return core.Verdict{}, false, err
	}
	return dr.Verdict, dr.Verdict.Domain != "", nil
}

// --- Anti-entropy (log-suffix streaming on rejoin) --------------------

// sincePage is the since endpoint's body. This is a rejoin-time bulk
// path, not the request hot path, so it uses the stdlib codec (records
// carry a sequence number the append codec has no field for).
type sincePage struct {
	Node    string        `json:"node"`
	Durable uint64        `json:"durable"`
	More    bool          `json:"more"`
	Records []sinceRecord `json:"records"`
}

type sinceRecord struct {
	Seq     uint64       `json:"seq"`
	Verdict core.Verdict `json:"verdict"`
}

// handleSince streams the log suffix after ?seq=N. Page size is
// bounded; More tells the caller to come back with the last record's
// sequence.
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
	recs, durable, more, err := r.store.Since(after, max)
	if err != nil {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
		return
	}
	page := sincePage{Durable: durable, More: more, Records: make([]sinceRecord, len(recs))}
	if p := r.peer.Load(); p != nil {
		page.Node = p.NodeID()
	}
	for i, rec := range recs {
		page.Records[i] = sinceRecord{Seq: rec.Seq, Verdict: rec.Verdict}
	}
	api.WriteJSON(w, http.StatusOK, page)
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
		if r.syncRound(ctx, p, wm) {
			r.synced.Store(true)
		}
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
// and returns the cursor for the next fetch. The page is peer-supplied:
// a record numbered past the page's own durable mark is refused, so a
// cursor never runs ahead of what the peer says it holds.
func (r *Replica) ingestPage(body []byte, ring *Ring, self string, after uint64) (next uint64, more bool, err error) {
	var page sincePage
	if err := json.Unmarshal(body, &page); err != nil {
		return after, false, err
	}
	for _, rec := range page.Records {
		if rec.Seq > page.Durable {
			return after, false, fmt.Errorf("since page: record seq %d past durable %d", rec.Seq, page.Durable)
		}
	}
	for _, rec := range page.Records {
		if candidateFor(ring, rec.Verdict.Domain, self) && r.ingest(rec.Verdict) {
			r.syncIngested.Add(1)
		} else {
			r.syncSkipped.Add(1)
		}
	}
	if !page.More {
		return page.Durable, false, nil
	}
	if n := len(page.Records); n > 0 {
		after = page.Records[n-1].Seq
	}
	return after, true, nil
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
// directory's peers.json, replaced atomically like the snapshot. Losing
// the file is safe — the next round re-streams from zero and ingest
// dedup absorbs the replay.
func (r *Replica) watermarkPath() string {
	return filepath.Join(r.store.Stats().Dir, "peers.json")
}

func (r *Replica) loadWatermarks() map[string]uint64 {
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
	return wm
}

func (r *Replica) saveWatermarks(wm map[string]uint64) error {
	buf, err := json.Marshal(wm)
	if err != nil {
		return err
	}
	return framelog.ReplaceFile(r.watermarkPath(), framelog.Options{}, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}
