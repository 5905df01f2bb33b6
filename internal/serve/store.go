package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/cluster"
	"idnlab/internal/core"
	"idnlab/internal/framelog"
	"idnlab/internal/vstore"
)

// Durable-store integration: how a worker's verdict-cache partition
// survives the fleet's churn.
//
//   - Write-through: every freshly computed verdict is appended to the
//     warm log (group-committed) and offered to the async replicator,
//     which ships it to the key's other HRW candidate (R=2 total
//     copies: the owner's log + the replica's cache/log).
//   - Warm boot: NewServer replays the recovered records into the cache
//     before the listener opens, so a restarted worker serves its old
//     partition warm instead of stampeding the SSIM path.
//   - Read-repair: a miss on a key whose candidate list names a live
//     peer probes that peer's cache (POST /v1/peek) before recomputing
//     — the promoted replica serves its warm copy, and a freshly
//     rebooted owner backfills from its replica.
//   - Anti-entropy: on (re)join the worker streams each peer's log
//     suffix since its persisted watermark (GET /v1/store/since) and
//     ingests the records it is owner or replica for, converging the
//     downtime gap; afterwards it re-syncs every SyncInterval.
//
// All cluster-facing decisions route through the worker's own
// epoch-cached view ring (the same rendezvous hash the gateway routes
// with), so placement agrees across the tier without coordination.

// storeMetrics are the replication/repair/anti-entropy counters that
// ride alongside the vstore.Stats block in /metrics.
type storeMetrics struct {
	replicationIn      atomic.Uint64
	replicationOut     atomic.Uint64
	replicationDropped atomic.Uint64
	replicationErrors  atomic.Uint64

	repairPeeks  atomic.Uint64
	repairHits   atomic.Uint64
	repairMisses atomic.Uint64

	syncRounds   atomic.Uint64
	syncIngested atomic.Uint64
	syncSkipped  atomic.Uint64
	syncErrors   atomic.Uint64
}

// StoreStats is the /metrics wire form: the embedded vstore counters
// plus the cluster-facing replication, read-repair and anti-entropy
// counters. The store drill's budget assertions (internal/smoke) read
// exactly this block, never log lines.
type StoreStats struct {
	vstore.Stats
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

func (s *Server) storeStats() StoreStats {
	st := StoreStats{
		ReplicationIn:      s.storeMx.replicationIn.Load(),
		ReplicationOut:     s.storeMx.replicationOut.Load(),
		ReplicationDropped: s.storeMx.replicationDropped.Load(),
		ReplicationErrors:  s.storeMx.replicationErrors.Load(),
		RepairPeeks:        s.storeMx.repairPeeks.Load(),
		RepairHits:         s.storeMx.repairHits.Load(),
		RepairMisses:       s.storeMx.repairMisses.Load(),
		SyncRounds:         s.storeMx.syncRounds.Load(),
		SyncIngested:       s.storeMx.syncIngested.Load(),
		SyncSkipped:        s.storeMx.syncSkipped.Load(),
		SyncErrors:         s.storeMx.syncErrors.Load(),
	}
	if s.store != nil {
		st.Stats = s.store.Stats()
	}
	return st
}

// attachStore wires cfg.Store into the server at construction: warm
// boot, write-through hook, and the compactor's cache walker.
func (s *Server) attachStore() {
	s.store = s.cfg.Store
	if s.store == nil {
		return
	}
	s.repl = newReplicator(s, s.cfg.ReplicateQueue)
	for _, r := range s.store.TakeRecovered() {
		s.cache.Put(r.Verdict.Domain, r.Verdict, r.Seq)
	}
	s.cache.SetWriteThrough(func(key string, v core.Verdict) uint64 {
		seq := s.store.Append(v)
		s.repl.offer(v)
		return seq
	})
	s.store.SetWalker(func(emit func(key string, v core.Verdict, seq uint64)) {
		s.cache.Walk(func(key string, v core.Verdict, seq uint64) bool {
			emit(key, v, seq)
			return true
		})
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

// selfID is this node's identity in the cluster view: the Peer's ID
// when one is attached (idnserve may register under its advertise
// address rather than cfg.NodeID), else cfg.NodeID.
func (s *Server) selfID() string {
	if p := s.peer.Load(); p != nil {
		return p.NodeID()
	}
	return s.cfg.NodeID
}

// viewRing returns the rendezvous ring over the worker's current
// membership view (non-dead nodes), cached by view epoch so the miss
// path never rebuilds it under steady state. nil when the worker is
// standalone or the view is empty.
func (s *Server) viewRing() *cluster.Ring {
	p := s.peer.Load()
	if p == nil {
		return nil
	}
	view := p.Status().View
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if s.ring != nil && s.ringEpoch == view.Epoch {
		return s.ring
	}
	nodes := make([]cluster.NodeInfo, 0, len(view.Nodes))
	for _, n := range view.Nodes {
		if n.State != cluster.StateDead {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	s.ring, s.ringEpoch = cluster.NewRing(nodes), view.Epoch
	return s.ring
}

// RunStoreSync runs the store's cluster side — the async replicator and
// the anti-entropy loop — until ctx is cancelled. Start it alongside
// Peer.Run on workers that have both a store and a gateway.
func (s *Server) RunStoreSync(ctx context.Context) {
	if s.store == nil {
		return
	}
	s.repl.started.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.repl.run(ctx) }()
	go func() { defer wg.Done(); s.runAntiEntropy(ctx) }()
	wg.Wait()
	s.repl.started.Store(false)
}

// --- Replication (owner → replica, async) -----------------------------

// replicator ships freshly computed verdicts to each key's other HRW
// candidate. Fire-and-forget with a bounded queue: replication is an
// optimization (anti-entropy converges whatever it drops), so it must
// never add latency or memory pressure to the serving path.
type replicator struct {
	srv     *Server
	ch      chan core.Verdict
	client  *http.Client
	started atomic.Bool
}

func newReplicator(s *Server, queue int) *replicator {
	if queue <= 0 {
		queue = 4096
	}
	return &replicator{
		srv:    s,
		ch:     make(chan core.Verdict, queue),
		client: &http.Client{Timeout: 2 * time.Second},
	}
}

// offer enqueues a fresh verdict for replication, dropping (and
// counting) when the queue is full or the replicator is not running.
func (r *replicator) offer(v core.Verdict) {
	if !r.started.Load() {
		return
	}
	select {
	case r.ch <- v:
	default:
		r.srv.storeMx.replicationDropped.Add(1)
	}
}

func (r *replicator) run(ctx context.Context) {
	interval := r.srv.cfg.ReplicateInterval
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.flush(ctx)
		}
	}
}

// replicateBatchMax bounds entries per replication POST; a flush that
// drained more issues several requests per target.
const replicateBatchMax = 256

func (r *replicator) flush(ctx context.Context) {
	var items []core.Verdict
	for len(items) < cap(r.ch) {
		select {
		case v := <-r.ch:
			items = append(items, v)
		default:
			goto drained
		}
	}
drained:
	if len(items) == 0 {
		return
	}
	ring := r.srv.viewRing()
	if ring == nil || ring.Len() < 2 {
		r.srv.storeMx.replicationDropped.Add(uint64(len(items)))
		return
	}
	self := r.srv.selfID()
	type batch struct {
		addr string
		resp []api.DetectResponse
	}
	perTarget := make(map[string]*batch)
	for _, v := range items {
		for _, c := range ring.Candidates(v.Domain, 2) {
			if c.ID == self {
				continue
			}
			b := perTarget[c.ID]
			if b == nil {
				b = &batch{addr: c.Addr}
				perTarget[c.ID] = b
			}
			b.resp = append(b.resp, api.DetectResponse{Verdict: v, Flagged: v.Flagged()})
		}
	}
	for _, b := range perTarget {
		for off := 0; off < len(b.resp); off += replicateBatchMax {
			end := off + replicateBatchMax
			if end > len(b.resp) {
				end = len(b.resp)
			}
			r.send(ctx, b.addr, b.resp[off:end])
		}
	}
}

func (r *replicator) send(ctx context.Context, addr string, resps []api.DetectResponse) {
	br := api.BatchResponse{Count: len(resps), Results: resps}
	for i := range resps {
		if resps[i].Flagged {
			br.Flagged++
		}
	}
	body, err := api.AppendBatchResponse(nil, &br)
	if err != nil {
		r.srv.storeMx.replicationErrors.Add(1)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/store/replicate", bytes.NewReader(body))
	if err != nil {
		r.srv.storeMx.replicationErrors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		r.srv.storeMx.replicationErrors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.srv.storeMx.replicationErrors.Add(1)
		return
	}
	r.srv.storeMx.replicationOut.Add(uint64(len(resps)))
}

// ingest inserts an externally computed verdict (replication frame,
// anti-entropy record, read-repair backfill): append to the local log
// for a fresh local sequence, then insert warm. Keys already cached are
// skipped — that dedup is what keeps replication and repeated sync
// rounds from growing the log without bound.
func (s *Server) ingest(v core.Verdict) bool {
	if v.Domain == "" {
		return false
	}
	if _, ok := s.cache.Peek(v.Domain); ok {
		return false
	}
	var seq uint64
	if s.store != nil {
		seq = s.store.Append(v)
	}
	s.cache.Put(v.Domain, v, seq)
	return true
}

// handleReplicate receives async replication frames: the body is a
// BatchResponse (the same zero-alloc codec the wire path uses), each
// result a verdict the sender computed for a key this node is a
// candidate for.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
		return
	}
	br, err := api.DecodeBatchResponseBytes(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	accepted := 0
	for i := range br.Results {
		if br.Results[i].Error != "" {
			continue
		}
		if s.ingest(br.Results[i].Verdict) {
			accepted++
		}
	}
	s.storeMx.replicationIn.Add(uint64(accepted))
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// --- Read-repair (peek a peer's cache before recomputing) -------------

// handlePeek answers "is this key warm here" without computing: 200
// with the cached verdict, 404 otherwise. Deliberately outside
// instrument() — internal probes must not pollute the client-facing
// latency histogram or status counters.
func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	req, err := decodeDetectRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	n, err := core.Normalize(req.Domain)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	v, ok := s.cache.Peek(n.ACE)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not cached"})
		return
	}
	resp := detectResponse{Verdict: v, Flagged: v.Flagged(), Cached: true}
	api.WriteDetect(w, http.StatusOK, &resp)
}

// repairFetch is the miss path's backfill probe: when this worker is
// not the key's steady-state owner (failover traffic landed here), or
// it has not yet completed a first anti-entropy round (fresh boot or
// rejoin), ask the key's other candidates for their warm copy before
// paying a detector pass. Bounded by RepairTimeout per probe and a
// per-peer cooldown after consecutive failures, so a dead candidate
// costs at most a couple of probes during the view-lag window.
func (s *Server) repairFetch(ace string) (core.Verdict, bool) {
	if s.store == nil {
		return core.Verdict{}, false
	}
	ring := s.viewRing()
	if ring == nil || ring.Len() < 2 {
		return core.Verdict{}, false
	}
	cands := ring.Candidates(ace, 2)
	self := s.selfID()
	if cands[0].ID == self && s.syncedOnce.Load() {
		// Steady-state owner miss: a genuinely new key. No peer can have
		// it (replication flows owner → replica), so probing is waste.
		return core.Verdict{}, false
	}
	probed := false
	for _, c := range cands {
		if c.ID == self {
			continue
		}
		brk := s.repairBreaker(c.ID)
		if !brk.Allow() {
			continue
		}
		probed = true
		s.storeMx.repairPeeks.Add(1)
		v, ok, err := s.peekPeer(c.Addr, ace)
		if err != nil {
			brk.Failure()
			continue
		}
		brk.Success()
		if ok {
			s.storeMx.repairHits.Add(1)
			return v, true
		}
	}
	if probed {
		s.storeMx.repairMisses.Add(1)
	}
	return core.Verdict{}, false
}

func (s *Server) peekPeer(addr, ace string) (core.Verdict, bool, error) {
	body := api.AppendDetectRequest(nil, &api.DetectRequest{Domain: ace})
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RepairTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/store/peek", bytes.NewReader(body))
	if err != nil {
		return core.Verdict{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.repairClient.Do(req)
	if err != nil {
		return core.Verdict{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return core.Verdict{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return core.Verdict{}, false, fmt.Errorf("peek %s: status %d", addr, resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return core.Verdict{}, false, err
	}
	dr, err := api.DecodeDetectResponseBytes(raw)
	if err != nil {
		return core.Verdict{}, false, err
	}
	if dr.Verdict.Domain == "" {
		return core.Verdict{}, false, nil
	}
	return dr.Verdict, true, nil
}

// repairBreaker returns the peer's probe breaker: two consecutive probe
// failures silence a peer for two seconds (it is most likely the dead
// node the view has not yet demoted), then one probe is let through.
func (s *Server) repairBreaker(id string) *cluster.Breaker {
	if b, ok := s.repairBrk.Load(id); ok {
		return b.(*cluster.Breaker)
	}
	b, _ := s.repairBrk.LoadOrStore(id, cluster.NewBreaker(cluster.BreakerConfig{
		FailThreshold: 2, Cooldown: 2 * time.Second, Now: s.repairNow,
	}))
	return b.(*cluster.Breaker)
}

// --- Anti-entropy (log-suffix streaming on rejoin) --------------------

// sinceRecord / sinceResponse are the /v1/store/since wire form. This
// is a rejoin-time bulk path, not the request hot path, so it uses the
// stdlib encoder (records carry a sequence number the zero-alloc
// response codec has no field for).
type sinceRecord struct {
	Seq     uint64       `json:"seq"`
	Verdict core.Verdict `json:"verdict"`
}

type sinceResponse struct {
	Node    string        `json:"node"`
	Durable uint64        `json:"durable"`
	More    bool          `json:"more"`
	Records []sinceRecord `json:"records"`
}

const (
	syncPageSize = 2048
	syncMaxPages = 32
)

// handleStoreSince streams the log suffix after ?seq=N — the
// anti-entropy feed a rejoining peer converges from. Page size is
// bounded; More tells the caller to come back with the last record's
// sequence.
func (s *Server) handleStoreSince(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no durable store on this node"})
		return
	}
	// Both parameters come from outside the process: anything that is not
	// a whole decimal number is refused, never read as its numeric prefix.
	var after uint64
	if v := r.URL.Query().Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad seq"})
			return
		}
		after = n
	}
	max := syncPageSize
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad max"})
			return
		}
		if n > 0 && n < syncPageSize { // out of range: serve the full page size
			max = n
		}
	}
	recs, durable, more, err := s.store.Since(after, max)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	resp := sinceResponse{Node: s.cfg.NodeID, Durable: durable, More: more, Records: make([]sinceRecord, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = sinceRecord{Seq: rec.Seq, Verdict: rec.Verdict}
	}
	writeJSON(w, http.StatusOK, resp)
}

// runAntiEntropy performs an initial sync as soon as the worker has a
// populated view (the rejoin path: warm-boot covers everything up to
// the crash, this covers the downtime gap), then re-syncs every
// SyncInterval to bound drift from dropped replication frames.
func (s *Server) runAntiEntropy(ctx context.Context) {
	wm := s.loadWatermarks()
	// Wait for the first joined view before the initial round.
	for s.viewRing() == nil {
		select {
		case <-ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	for {
		if s.syncRound(ctx, wm) {
			s.syncedOnce.Store(true)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.cfg.SyncInterval):
		}
	}
}

// syncRound streams each live peer's suffix and ingests the records
// this node is a candidate for. Returns true when every peer was
// drained without error.
func (s *Server) syncRound(ctx context.Context, wm map[string]uint64) bool {
	ring := s.viewRing()
	if ring == nil {
		return false
	}
	p := s.peer.Load()
	if p == nil {
		return false
	}
	view := p.Status().View
	self := s.selfID()
	clean := true
	for _, node := range view.Nodes {
		if node.ID == self || node.State == cluster.StateDead || node.Addr == "" {
			continue
		}
		if !s.syncPeer(ctx, ring, node, wm) {
			clean = false
		}
		if ctx.Err() != nil {
			return false
		}
	}
	s.storeMx.syncRounds.Add(1)
	if err := s.saveWatermarks(wm); err != nil {
		// Not fatal: the next round re-streams from the old watermarks
		// and ingest dedup absorbs the replay.
		s.storeMx.syncErrors.Add(1)
	}
	return clean
}

// syncPeer drains one peer's suffix (bounded pages per round).
func (s *Server) syncPeer(ctx context.Context, ring *cluster.Ring, node cluster.NodeInfo, wm map[string]uint64) bool {
	self := s.selfID()
	after := wm[node.ID]
	for page := 0; page < syncMaxPages; page++ {
		reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
			fmt.Sprintf("http://%s/v1/store/since?seq=%d&max=%d", node.Addr, after, syncPageSize), nil)
		if err != nil {
			cancel()
			s.storeMx.syncErrors.Add(1)
			return false
		}
		resp, err := s.repairClient.Do(req)
		if err != nil {
			cancel()
			s.storeMx.syncErrors.Add(1)
			return false
		}
		if resp.StatusCode == http.StatusNotFound {
			// Peer runs without a store; nothing to stream.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			return true
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			s.storeMx.syncErrors.Add(1)
			return false
		}
		var sr sinceResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		cancel()
		if err != nil {
			s.storeMx.syncErrors.Add(1)
			return false
		}
		for _, rec := range sr.Records {
			if !s.candidateFor(ring, rec.Verdict.Domain, self) {
				s.storeMx.syncSkipped.Add(1)
				continue
			}
			if s.ingest(rec.Verdict) {
				s.storeMx.syncIngested.Add(1)
			} else {
				s.storeMx.syncSkipped.Add(1)
			}
		}
		if len(sr.Records) > 0 {
			after = sr.Records[len(sr.Records)-1].Seq
		}
		if !sr.More {
			wm[node.ID] = sr.Durable
			return true
		}
		wm[node.ID] = after
	}
	return true // budget exhausted this round; the next round resumes
}

// candidateFor reports whether self is in the key's R=2 candidate list
// — the placement filter that keeps anti-entropy from copying the whole
// cluster onto every node.
func (s *Server) candidateFor(ring *cluster.Ring, key, self string) bool {
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

// Watermarks persist per-peer sync cursors across restarts, replaced
// atomically like the snapshot (framelog.ReplaceFile). Losing the
// file is safe — the next round re-streams from zero and ingest dedup
// absorbs the replay.
func (s *Server) watermarkPath() string {
	return filepath.Join(s.store.Stats().Dir, "peers.json")
}

func (s *Server) loadWatermarks() map[string]uint64 {
	wm := make(map[string]uint64)
	if s.store == nil {
		return wm
	}
	buf, err := os.ReadFile(s.watermarkPath())
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

func (s *Server) saveWatermarks(wm map[string]uint64) error {
	if s.store == nil {
		return nil
	}
	buf, err := json.Marshal(wm)
	if err != nil {
		return err
	}
	return framelog.ReplaceFile(s.watermarkPath(), framelog.Options{}, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}
