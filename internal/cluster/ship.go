package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"idnlab/internal/vstore"
)

// shipper is the one sender of replication frames: a bounded queue of
// (target address, record), flushed every shipInterval as per-target
// batches. A worker's Replica feeds it each fresh verdict's other HRW
// candidate, with the seq the local store appended it as. A batch's body
// is the records' store frames (vstore.AppendFrame), the same bytes the
// sender's log holds. Fire-and-forget: shipping is an optimization
// (anti-entropy converges whatever it drops), so offer never blocks and
// never adds latency to the serving path.
type shipper struct {
	ch chan shipItem

	out     atomic.Uint64 // verdicts delivered
	dropped atomic.Uint64 // verdicts refused by a full queue
	errs    atomic.Uint64 // batches that failed to send
}

type shipItem struct {
	addr string
	rec  vstore.Record
}

const (
	shipQueueSize = 4096
	shipBatchMax  = 256 // verdicts per POST; a larger flush issues several per target
	shipInterval  = 25 * time.Millisecond
)

// offer enqueues rec for the node at addr, dropping (and counting) when
// the queue is full.
func (s *shipper) offer(addr string, rec vstore.Record) {
	select {
	case s.ch <- shipItem{addr: addr, rec: rec}:
	default:
		s.dropped.Add(1)
	}
}

// run flushes on a ticker until ctx is cancelled.
func (s *shipper) run(ctx context.Context) {
	t := time.NewTicker(shipInterval)
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
	perTarget := make(map[string][]vstore.Record)
	for n := 0; n < shipQueueSize && len(s.ch) > 0; n++ { // flush is the one receiver
		it := <-s.ch
		perTarget[it.addr] = append(perTarget[it.addr], it.rec)
	}
	for addr, recs := range perTarget {
		for len(recs) > 0 {
			n := min(len(recs), shipBatchMax)
			s.send(ctx, addr, recs[:n])
			recs = recs[n:]
		}
	}
}

// send posts one batch in the replicate body format: the records'
// frames, back to back.
func (s *shipper) send(ctx context.Context, addr string, recs []vstore.Record) {
	var body []byte
	for _, rec := range recs {
		var err error
		if body, err = vstore.AppendFrame(body, rec.Seq, rec.Verdict); err != nil {
			s.errs.Add(1)
			return
		}
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
	s.out.Add(uint64(len(recs)))
}
