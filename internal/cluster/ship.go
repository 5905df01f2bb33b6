package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"idnlab/internal/api"
	"idnlab/internal/core"
)

// shipper is the one sender of replication frames: a bounded queue of
// (target address, verdict), flushed every interval as per-target
// batches. A worker's Replica feeds it each fresh verdict's other HRW
// candidate. Fire-and-forget: shipping is an optimization (anti-entropy
// converges whatever it drops), so offer never blocks and never adds
// latency to the serving path.
type shipper struct {
	ch       chan shipItem
	interval time.Duration

	out     atomic.Uint64 // verdicts delivered
	dropped atomic.Uint64 // verdicts refused by a full queue
	errs    atomic.Uint64 // batches that failed to send
}

type shipItem struct {
	addr string
	v    core.Verdict
}

const (
	shipQueueSize = 4096
	shipBatchMax  = 256 // verdicts per POST; a larger flush issues several per target
	shipInterval  = 25 * time.Millisecond
)

func newShipper(interval time.Duration) *shipper {
	if interval <= 0 {
		interval = shipInterval
	}
	return &shipper{ch: make(chan shipItem, shipQueueSize), interval: interval}
}

// offer enqueues v for the node at addr, dropping (and counting) when
// the queue is full.
func (s *shipper) offer(addr string, v core.Verdict) bool {
	select {
	case s.ch <- shipItem{addr: addr, v: v}:
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// run flushes on a ticker until ctx is cancelled.
func (s *shipper) run(ctx context.Context) {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.flush(ctx)
		}
	}
}

func (s *shipper) flush(ctx context.Context) {
	var perTarget map[string][]api.DetectResponse
drain:
	for n := 0; n < shipQueueSize; n++ {
		select {
		case it := <-s.ch:
			if perTarget == nil {
				perTarget = make(map[string][]api.DetectResponse)
			}
			perTarget[it.addr] = append(perTarget[it.addr], api.DetectResponse{Verdict: it.v, Flagged: it.v.Flagged()})
		default:
			break drain
		}
	}
	for addr, resps := range perTarget {
		for len(resps) > 0 {
			n := min(len(resps), shipBatchMax)
			s.send(ctx, addr, resps[:n])
			resps = resps[n:]
		}
	}
}

// send posts one batch in the replicate body format: a BatchResponse
// (the same append codec the client-facing wire path uses), of which
// the receiver reads only Results.
func (s *shipper) send(ctx context.Context, addr string, resps []api.DetectResponse) {
	br := api.BatchResponse{Count: len(resps), Results: resps}
	for i := range resps {
		if resps[i].Flagged {
			br.Flagged++
		}
	}
	body, err := api.AppendBatchResponse(nil, &br)
	if err != nil {
		s.errs.Add(1)
		return
	}
	rep, err := callWithin(ctx, 2*time.Second, http.MethodPost, addr, replicatePath, body)
	if err != nil {
		s.errs.Add(1)
		return
	}
	status := rep.Status
	rep.Release()
	if status != http.StatusOK {
		s.errs.Add(1)
		return
	}
	s.out.Add(uint64(len(resps)))
}
