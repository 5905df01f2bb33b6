package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fixedRecorder builds spans with chosen times instead of the clock.
func fixedRecorder(spans ...span) *recorder {
	r := newRecorder()
	for _, n := range []string{"request", "a", "b", "c"} {
		r.nameID(n)
	}
	r.spans = spans
	return r
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	// request [0,100] > a [10,40] > b [15,25]; request > c [50,70].
	r := fixedRecorder(
		span{Parent: 0, Request: 1, Name: 0, Start: 0, End: 100},
		span{Parent: 1, Request: 1, Name: 1, Start: 10, End: 40},
		span{Parent: 2, Request: 1, Name: 2, Start: 15, End: 25},
		span{Parent: 1, Request: 1, Name: 3, Start: 50, End: 70},
	)
	self := r.selfTimes()
	want := map[string]int64{"request": 50, "a": 20, "b": 10, "c": 20}
	var sum int64
	for name, w := range want {
		if got := self[name].Total; got != w {
			t.Errorf("self time of %s = %d, want %d", name, got, w)
		}
		sum += self[name].Total
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimeIsNeverNegative(t *testing.T) {
	// Children that overlap each other, start before the parent and run
	// past its end cover it at most once.
	r := fixedRecorder(
		span{Parent: 0, Request: 1, Name: 0, Start: 100, End: 200},
		span{Parent: 1, Request: 1, Name: 1, Start: 50, End: 160},
		span{Parent: 1, Request: 1, Name: 2, Start: 120, End: 400},
		span{Parent: 1, Request: 1, Name: 3, Start: 130, End: 140},
	)
	self := r.selfTimes()
	if got := self["request"].Total; got != 0 {
		t.Fatalf("self time of a fully covered span = %d, want 0", got)
	}
	for name, st := range self {
		if st.Total < 0 {
			t.Errorf("negative self time for %s: %d", name, st.Total)
		}
	}
}

func TestSpansOfOneRequestShareItsID(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 3; i++ {
		root := r.begin("request", 0, r.nextRequest())
		child := r.begin("a", root, 0)
		grandchild := r.begin("b", child, 0)
		r.end(grandchild)
		r.end(child)
		r.add("c", root, 0, 1)
		r.end(root)
	}
	if len(r.spans) != 12 {
		t.Fatalf("%d spans, want 12", len(r.spans))
	}
	for i, s := range r.spans {
		if want := i/4 + 1; s.Request != want {
			t.Errorf("span %d belongs to request %d, want %d", i+1, s.Request, want)
		}
		if s.Parent >= i+1 {
			t.Errorf("span %d has parent %d, not an earlier span", i+1, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i+1)
		}
	}
}

func TestAddStaysInsideItsParent(t *testing.T) {
	r := fixedRecorder(span{Parent: 0, Request: 1, Name: 0, Start: 100, End: 130})
	off := r.add("a", 1, 0, 20)
	off = r.add("b", 1, off, 20) // would end at 140: clipped
	r.add("c", 1, off, 20)       // nothing left
	for i, want := range [][2]int64{{100, 120}, {120, 130}, {130, 130}} {
		s := r.spans[i+1]
		if s.Start != want[0] || s.End != want[1] {
			t.Errorf("added span %d is [%d,%d], want %v", i, s.Start, s.End, want)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("request", 0, 1)
	r.end(id)
	if r.add("a", id, 0, 5) != 0 || id != 0 || r.on() {
		t.Fatal("a nil recorder must be inert")
	}
}

func TestTraceFileIsWrittenOnlyByWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace-x.json")
	r := newRecorder()
	root := r.begin("request", 0, r.nextRequest())
	child := r.begin("api.decode", root, 0)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("recording wrote files: %v", left)
	}
	if err := r.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Unit  string              `json:"unit"`
		Names []string            `json:"names"`
		Spans [][6]int64          `json:"spans"`
		Self  map[string]selfTime `json:"self"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Unit != "ns" || len(file.Names) != 2 || len(file.Spans) != 2 {
		t.Fatalf("file holds unit %q, %d names, %d spans", file.Unit, len(file.Names), len(file.Spans))
	}
	if s := file.Spans[1]; s[0] != 2 || s[1] != 1 || s[2] != 1 || file.Names[s[3]] != "api.decode" || s[5]-s[4] < int64(time.Millisecond) {
		t.Fatalf("child row %v", s)
	}
	if file.Self["api.decode"].Count != 1 || file.Self["request"].Total < 0 {
		t.Fatalf("self table %v", file.Self)
	}
}
