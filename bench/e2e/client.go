package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"idnlab/internal/api"
)

// Closed-loop load generator: conns keep-alive connections, one sending
// goroutine each, every one taking the next operation of the sequence as
// soon as its previous answer is in. It does the same work for every
// request — send a prebuilt body, read the answer, hash it — and keeps
// only a few words per request; answers are judged after the phase.

// result is what the generator keeps of one request.
type result struct {
	Start, End int64  // ns since the phase began
	Hash       uint64 // of the body with every "cached" flag read as false
	Cached     uint32 // number of "cached":true flags in the body
	OK         bool   // transport succeeded with status 200
}

var (
	cachedTrue  = []byte(`"cached":true`)
	cachedFalse = []byte(`"cached":false`)
	hashSeed    = maphash.MakeSeed()
)

// hashBody hashes body as if every "cached":true read "cached":false and
// counts the flags that were true. JSON strings escape their quotes, so
// the byte sequence can only be the field itself.
func hashBody(body []byte) (uint64, uint32) {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var cached uint32
	for {
		i := bytes.Index(body, cachedTrue)
		if i < 0 {
			h.Write(body)
			return h.Sum64(), cached
		}
		h.Write(body[:i])
		h.Write(cachedFalse)
		body = body[i+len(cachedTrue):]
		cached++
	}
}

// requestBodies encodes every operation with the repo's own request
// encoders, before the phase.
func requestBodies(ops []op) [][]byte {
	out := make([][]byte, len(ops))
	for i, o := range ops {
		if o.Batch {
			out[i] = api.AppendBatchRequest(nil, &api.BatchRequest{Domains: o.Domains})
		} else {
			out[i] = api.AppendDetectRequest(nil, &api.DetectRequest{Domain: o.Domains[0]})
		}
	}
	return out
}

// client drives one server address.
type client struct {
	base  string
	conns []*http.Client
}

// newClient opens the generator's connections: at most one per CPU, each
// its own transport capped at one connection to the host.
func newClient(addr string) *client {
	c := &client{base: "http://" + addr}
	for i := 0; i < runtime.NumCPU(); i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// phaseStats is the generator's own account of a phase.
type phaseStats struct {
	Wall time.Duration
	CPU  time.Duration // of this process, all threads
}

// run sends ops[i] with bodies[i] for every i, in order of the shared
// counter, and fills results[i].
func (c *client) run(ops []op, bodies [][]byte, results []result) phaseStats {
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	begin := time.Now()
	for _, hc := range c.conns {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				path := "/v1/detect"
				if ops[i].Batch {
					path = "/v1/detect/batch"
				}
				r := &results[i]
				r.Start = int64(time.Since(begin))
				r.OK = c.do(hc, path, bodies[i], &buf)
				r.End = int64(time.Since(begin))
				if r.OK {
					r.Hash, r.Cached = hashBody(buf.Bytes())
				}
			}
		}(hc)
	}
	wg.Wait()
	return phaseStats{Wall: time.Since(begin), CPU: selfCPU() - cpu0}
}

func (c *client) do(hc *http.Client, path string, body []byte, buf *bytes.Buffer) bool {
	resp, err := hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}

// httpGet fetches a path (the /metrics scrapes) outside the measured load.
func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d", addr, path, resp.StatusCode)
	}
	return b, nil
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const segments = 10

// segmentRates cuts the phase's operations, in order of completion, into
// equal-count segments and returns each segment's domains per second.
// The median of these is the throughput: one burst from a neighbour on
// the box moves one segment, not the result.
func segmentRates(ops []op, results []result) []float64 {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return results[order[a]].End < results[order[b]].End })
	rates := make([]float64, 0, segments)
	var prevEnd int64
	for s := 0; s < segments; s++ {
		lo, hi := s*len(order)/segments, (s+1)*len(order)/segments
		if hi == lo {
			continue
		}
		domains := 0
		for _, i := range order[lo:hi] {
			domains += len(ops[i].Domains)
		}
		end := results[order[hi-1]].End
		rates = append(rates, float64(domains)/(float64(end-prevEnd)/1e9))
		prevEnd = end
	}
	return rates
}
