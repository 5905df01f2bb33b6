package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"idnlab/internal/api"
)

// FuzzLoadWatermarks writes arbitrary bytes as the store directory's
// peers.json. loadWatermarks must never panic and must always hand the
// anti-entropy loop a map it can write to (a corrupt file means "sync
// from zero", not a crash); whatever it returns must survive a
// save/load round trip unchanged.
func FuzzLoadWatermarks(f *testing.F) {
	f.Add([]byte(`{"w1":12,"w2":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"w1":-1}`))
	f.Add([]byte(`{"w1":18446744073709551616}`))
	f.Add([]byte(`{"w1":1.5}`))
	f.Add([]byte(`{"w1":"12"}`))
	f.Add([]byte(`{"w1":12`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte("{\"\xff\":1}"))

	r := &Replica{store: openStore(f, f.TempDir())}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(r.watermarkPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		wm := r.loadWatermarks()
		if wm == nil {
			t.Fatalf("loadWatermarks(%q) returned a nil map", data)
		}
		wm["probe"] = 7 // what syncPeer does with it
		if err := r.saveWatermarks(wm); err != nil {
			t.Fatalf("saveWatermarks(%v): %v", wm, err)
		}
		if back := r.loadWatermarks(); !reflect.DeepEqual(back, wm) {
			t.Fatalf("watermarks changed across save/load: %v vs %v", back, wm)
		}
	})
}

// FuzzSincePage feeds arbitrary bytes to the anti-entropy page decoder
// as a peer's reply. It must never panic, never move the cursor past
// the page's own durable mark, never ingest a record with an empty
// domain, and ingest nothing from a page it refuses. Every page either
// advances the cursor or ends the round, so a round's page budget can
// never be spent standing still; the one backwards move is the reset
// to 0 that ends a round against a restarted log.
func FuzzSincePage(f *testing.F) {
	f.Add([]byte(`{"node":"a","durable":2,"more":false,"records":[{"seq":1,"verdict":{"domain":"a.example","unicode":"a.example","idn":false}},{"seq":2,"verdict":{"domain":"b.example","unicode":"b.example","idn":false}}]}`), uint64(0))
	f.Add([]byte(`{"durable":9,"more":true,"records":[{"seq":4,"verdict":{"domain":"c.example"}}]}`), uint64(3))
	f.Add([]byte(`{"durable":1,"more":true,"records":[{"seq":7,"verdict":{"domain":"ahead.example"}}]}`), uint64(0))
	f.Add([]byte(`{"durable":5,"records":[{"seq":5,"verdict":{"domain":""}}]}`), uint64(4))
	f.Add([]byte(`{"durable":3,"more":true,"records":[]}`), uint64(8))
	f.Add([]byte(`{"records":null}`), uint64(2))
	f.Add([]byte(`null`), uint64(1))
	f.Add([]byte(`{"durable":-1}`), uint64(0))
	f.Add([]byte(`{"durable":2,"records":[{"seq":1,"verdict":`), uint64(0))
	f.Add([]byte(`{"durable":9,"more":true,"records":[{"seq":2,"verdict":{"domain":"behind.example"}}]}`), uint64(3))
	f.Add([]byte(`{"durable":9,"more":true,"records":[{"seq":5,"verdict":{"domain":"a.example"}},{"seq":5,"verdict":{"domain":"b.example"}}]}`), uint64(3))
	f.Add([]byte(`{"durable":9,"more":true,"records":[]}`), uint64(3))
	f.Add([]byte(`{"durable":2,"more":false,"records":[]}`), uint64(8))

	ring := NewRing([]NodeInfo{{ID: "self", State: StateAlive}, {ID: "peer", State: StateAlive}})

	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		cache := newMapCache()
		r := NewReplica(ReplicaConfig{}, cache, nil)
		next, more, err := r.ingestPage(data, ring, "self", after)
		if err != nil {
			if next != after || more || cache.len() != 0 {
				t.Fatalf("refused page moved state: next %d (after %d), more %v, %d ingested", next, after, more, cache.len())
			}
			return
		}
		var page struct {
			Durable uint64 `json:"durable"`
		}
		if json.Unmarshal(data, &page) != nil {
			t.Fatalf("accepted a page encoding/json refuses: %q", data)
		}
		if next != after && next > page.Durable {
			t.Fatalf("cursor moved to %d, past the page's durable %d", next, page.Durable)
		}
		if more && next <= after {
			t.Fatalf("a continued page left the cursor at %d (after %d)", next, after)
		}
		if next < after && (more || next != 0 || page.Durable >= after) {
			t.Fatalf("cursor moved back from %d to %d (more %v, durable %d)", after, next, more, page.Durable)
		}
		if _, ok := cache.Peek(""); ok {
			t.Fatal("ingested a record with an empty domain")
		}
	})
}

// FuzzReplicateBody posts arbitrary bytes as a replication frame: the
// handler must answer 200 or a 4xx, never accept more verdicts than the
// frame carries, and never ingest a result that reports an error.
func FuzzReplicateBody(f *testing.F) {
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")}, api.DetectResponse{Verdict: vd("b.example"), Flagged: true})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")}, api.DetectResponse{Verdict: vd("a.example")})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Input: "bad..name", Error: "empty label"}, api.DetectResponse{Verdict: vd("shed.example"), Error: "shed"})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{})))
	f.Add([]byte(`{"count":1,"flagged":0,"results":[`))
	f.Add([]byte(`{"results":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache := newMapCache()
		r := NewReplica(ReplicaConfig{}, cache, nil)
		rec := httptest.NewRecorder()
		r.handleReplicate(rec, httptest.NewRequest(http.MethodPost, replicatePath, strings.NewReader(string(data))))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 || cache.len() != 0 {
				t.Fatalf("refused frame: status %d, %d ingested", rec.Code, cache.len())
			}
			return
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("ack %q: %v", rec.Body, err)
		}
		br, err := api.DecodeBatchResponseBytes(data)
		if err != nil {
			t.Fatalf("handler accepted a frame the codec refuses: %v", err)
		}
		clean := make(map[string]bool)
		for _, res := range br.Results {
			if res.Error == "" {
				clean[res.Verdict.Domain] = true
			}
		}
		if ack.Accepted != cache.len() || ack.Accepted > len(br.Results) {
			t.Fatalf("accepted %d with %d cached from %d results", ack.Accepted, cache.len(), len(br.Results))
		}
		for key := range cache.m {
			if key == "" || !clean[key] {
				t.Fatalf("ingested %q, which no error-free result carries", key)
			}
		}
	})
}
