package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Everything one node says to another goes through call: the router's
// proxied requests and broadcasts, the replicate shipper, the
// anti-entropy pager and the join heartbeat. A
// transport change (framing, pipelining) is a change to this file.

// Doer is the HTTP client surface call runs over (satisfied by
// *http.Client); router tests substitute failure-injecting fakes.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// sharedClient is the one client node-to-node traffic uses unless a
// RouterConfig overrides it. It carries no Timeout: every caller bounds
// its call with a context deadline.
var sharedClient Doer = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     60 * time.Second,
	},
}

// MaxReplyBytes bounds how much of a node's reply body is read; longer
// bodies are truncated.
const MaxReplyBytes = 8 << 20

// Reply is one node's answer. Any HTTP status below 500 counts as an
// answer (a 429 is the worker telling the client to back off — it must
// pass through untouched, Retry-After and all); transport errors and
// 5xx are failures.
//
// Ownership: Body may be backed by a pooled buffer. The consumer that
// receives a Reply owns it and must call Release once Body is no longer
// referenced (copy out anything that outlives the call, or use Detach).
// Never releasing is safe — the buffer just falls to the GC instead of
// the pool — but referencing Body after Release is a data race with the
// next request that draws the buffer.
type Reply struct {
	NodeID     string // set by the router; empty on direct calls
	Status     int
	Body       []byte
	RetryAfter string // Retry-After header, when present
	Attempts   int

	pooled *[]byte // pool token; nil once released or detached
}

// replyBufPool recycles reply-body buffers across exchanges — on the
// proxied-singles hot path this removes the largest per-request
// allocation the gateway makes (the worker's response body).
var replyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// maxPooledReply caps what Release returns to the pool so one oversized
// batch reply cannot pin megabytes per pool shard.
const maxPooledReply = 1 << 20

// Release returns the reply's body buffer to the pool. Idempotent.
func (r *Reply) Release() {
	p := r.pooled
	if p == nil {
		return
	}
	r.pooled, r.Body = nil, nil
	if cap(*p) > maxPooledReply {
		return
	}
	*p = (*p)[:0]
	replyBufPool.Put(p)
}

// Detach unhooks Body from the pool: the buffer goes back for reuse and
// Body becomes a private copy the caller may retain indefinitely. Used
// by consumers that store bodies past the request (merged /metrics).
func (r *Reply) Detach() {
	if r.pooled == nil {
		return
	}
	body := append([]byte(nil), r.Body...)
	r.Release()
	r.Body = body
}

// call performs one HTTP exchange with the node at addr and reads the
// whole reply, so the connection is reusable and ctx may be cancelled
// as soon as call returns.
func call(ctx context.Context, doer Doer, method, addr, path string, body []byte) (Reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, rd)
	if err != nil {
		return Reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := doer.Do(req)
	if err != nil {
		return Reply{}, err
	}
	defer resp.Body.Close()
	// Read the body into a pooled buffer (grow-in-place, truncating at
	// MaxReplyBytes). The buffer travels with the Reply; see Reply's
	// ownership contract.
	pooled := replyBufPool.Get().(*[]byte)
	b := (*pooled)[:0]
	lr := io.LimitReader(resp.Body, MaxReplyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*pooled = b[:0]
			replyBufPool.Put(pooled)
			return Reply{}, rerr
		}
	}
	*pooled = b
	if resp.StatusCode >= 500 {
		*pooled = b[:0]
		replyBufPool.Put(pooled)
		return Reply{}, fmt.Errorf("%s%s: status %d", addr, path, resp.StatusCode)
	}
	return Reply{
		Status:     resp.StatusCode,
		Body:       b,
		RetryAfter: resp.Header.Get("Retry-After"),
		pooled:     pooled,
	}, nil
}

// callWithin is call on the shared client under its own deadline — the
// form every caller but the router uses.
func callWithin(ctx context.Context, d time.Duration, method, addr, path string, body []byte) (Reply, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return call(ctx, sharedClient, method, addr, path, body)
}
