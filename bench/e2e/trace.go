package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span recorder and self-time reducer for the traced run. Spans are
// recorded from the benchmark's own files, around the calls into each
// layer's public functions; they stay in memory until writeFile. begin,
// end and add do nothing on a nil recorder, so traced and untraced code
// are the same code.
//
// File schema (bench/out/trace-<workload>.json):
//
//	{"unit": "ns",
//	 "names": ["request", "api.decode", ...],
//	 "spans": [[id, parent, request, name, start, end], ...],
//	 "self":  {"api.decode": {"total_ns": 1, "count": 1, "mean_ns": 1}, ...}}
//
// id is 1-based and a span's parent (0 for a root) always has a smaller
// id; request is the identifier all spans of one request share; name
// indexes names; start and end are nanoseconds since the recorder was
// made. self is each name's self time: duration minus the part of the
// span's interval its children cover.

type span struct {
	Parent, Request int
	Name            int
	Start, End      int64
}

type recorder struct {
	t0       time.Time
	spans    []span // span id i is spans[i-1]
	names    []string
	nameIDs  map[string]int
	requests int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), nameIDs: make(map[string]int)}
}

func (r *recorder) nameID(name string) int {
	id, ok := r.nameIDs[name]
	if !ok {
		id = len(r.names)
		r.names = append(r.names, name)
		r.nameIDs[name] = id
	}
	return id
}

// on reports whether spans are being recorded.
func (r *recorder) on() bool { return r != nil }

// nextRequest hands out a fresh request identifier.
func (r *recorder) nextRequest() int {
	r.requests++
	return r.requests
}

// begin opens a span under parent (0 for a root) and returns its id. A
// child belongs to its parent's request; request is used for roots.
func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	if parent != 0 {
		request = r.spans[parent-1].Request
	}
	r.spans = append(r.spans, span{Parent: parent, Request: request, Name: r.nameID(name)})
	id := len(r.spans)
	r.spans[id-1].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id-1].End = int64(time.Since(r.t0))
	}
}

// add records a span whose duration was measured elsewhere, laid inside
// its parent from offset on and clipped to the parent's end. It returns
// the offset just past it.
func (r *recorder) add(name string, parent int, offset, duration int64) int64 {
	if r == nil {
		return 0
	}
	p := r.spans[parent-1]
	start := p.Start + offset
	if start > p.End {
		start = p.End
	}
	end := start + duration
	if end > p.End {
		end = p.End
	}
	r.spans = append(r.spans, span{Parent: parent, Request: p.Request, Name: r.nameID(name), Start: start, End: end})
	return end - p.Start
}

// addRoot records a root span measured elsewhere.
func (r *recorder) addRoot(name string, request int, duration int64) {
	now := int64(time.Since(r.t0))
	r.spans = append(r.spans, span{Request: request, Name: r.nameID(name), Start: now, End: now + duration})
}

// selfTime is one span name's account.
type selfTime struct {
	Total int64   `json:"total_ns"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean_ns"`
}

// selfTimes reduces the spans to self time per name: each span's
// duration minus the union of its children's intervals inside it. The
// result is never negative, whatever the children claim.
func (r *recorder) selfTimes() map[string]selfTime {
	children := make(map[int][]int) // parent id -> child ids
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i+1)
		}
	}
	out := make(map[string]selfTime)
	for i, s := range r.spans {
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]-1].Start < r.spans[kids[b]-1].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			ks, ke := r.spans[k-1].Start, r.spans[k-1].End
			if ks < reach {
				ks = reach
			}
			if ke > s.End {
				ke = s.End
			}
			if ke > ks {
				covered += ke - ks
				reach = ke
			}
		}
		self := s.End - s.Start - covered
		if self < 0 {
			self = 0
		}
		st := out[r.names[s.Name]]
		st.Total += self
		st.Count++
		out[r.names[s.Name]] = st
	}
	for n, st := range out {
		st.Mean = float64(st.Total) / float64(st.Count)
		out[n] = st
	}
	return out
}

// writeFile writes the spans and their reduction; it is the only place
// spans leave memory.
func (r *recorder) writeFile(path string) error {
	rows := make([][6]int64, len(r.spans))
	for i, s := range r.spans {
		rows[i] = [6]int64{int64(i + 1), int64(s.Parent), int64(s.Request), int64(s.Name), s.Start, s.End}
	}
	b, err := json.Marshal(map[string]any{"unit": "ns", "names": r.names, "spans": rows, "self": r.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func traceFile(e *env, workload string) string {
	return filepath.Join(e.out, "trace-"+workload+".json")
}
