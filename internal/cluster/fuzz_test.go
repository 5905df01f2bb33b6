package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/vstore"
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
// domain, ingest nothing from a page it refuses, and accept only a page
// whose header is whole and whose every frame checks and decodes. Every
// page either advances the cursor or ends the round, so a round's page
// budget can never be spent standing still; the one backwards move is
// the reset to 0 that ends a round against a restarted log.
func FuzzSincePage(f *testing.F) {
	rec := func(seq uint64, domain string) string {
		return recordFrames(f, seq, api.DetectResponse{Verdict: vd(domain)})
	}
	f.Add([]byte(sincePage(2, false, rec(1, "a.example"), rec(2, "b.example"))), uint64(0))
	f.Add([]byte(sincePage(9, true, rec(4, "c.example"))), uint64(3))
	f.Add([]byte(sincePage(1, true, rec(7, "ahead.example"))), uint64(0))
	f.Add([]byte(sincePage(5, false, rec(5, ""))), uint64(4))
	f.Add([]byte(sincePage(3, true)), uint64(8))
	f.Add([]byte(sincePage(9, true, rec(2, "behind.example"))), uint64(3))
	f.Add([]byte(sincePage(9, true, rec(5, "a.example"), rec(5, "b.example"))), uint64(3))
	f.Add([]byte(sincePage(9, true)), uint64(3))
	f.Add([]byte(sincePage(2, false)), uint64(8))
	f.Add([]byte(sincePage(9, false, recordFrames(f, 4, api.DetectResponse{Verdict: vd("e.example"), Error: "shed"}))), uint64(3))
	f.Add([]byte(sincePage(2, false, rec(1, "a.example"))[:20]), uint64(0))
	f.Add([]byte(sincePage(2, false)[:4]), uint64(1))
	f.Add([]byte(nil), uint64(0))

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
		if len(data) < sinceHeader {
			t.Fatalf("accepted a %d-byte page, shorter than its header", len(data))
		}
		if _, err := vstore.DecodeFrames(data[sinceHeader:]); err != nil {
			t.Fatalf("accepted a page whose frames do not check and decode: %v", err)
		}
		durable := binary.LittleEndian.Uint64(data)
		if next != after && next > durable {
			t.Fatalf("cursor moved to %d, past the page's durable %d", next, durable)
		}
		if more && next <= after {
			t.Fatalf("a continued page left the cursor at %d (after %d)", next, after)
		}
		if next < after && (more || next != 0 || durable >= after) {
			t.Fatalf("cursor moved back from %d to %d (more %v, durable %d)", after, next, more, durable)
		}
		if _, ok := cache.Peek(""); ok {
			t.Fatal("ingested a record with an empty domain")
		}
	})
}

// FuzzReplicateBody posts arbitrary bytes as a replicate body: the
// handler must answer 200 or a 4xx, accept only a body whose every frame
// checks and decodes, never accept more verdicts than the body carries,
// and never ingest a record that reports an error or has no domain.
func FuzzReplicateBody(f *testing.F) {
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")}, api.DetectResponse{Verdict: vd("b.example"), Flagged: true})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")}, api.DetectResponse{Verdict: vd("a.example")})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Input: "bad..name", Error: "empty label"}, api.DetectResponse{Verdict: vd("shed.example"), Error: "shed"})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{})))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")})[:12]))
	f.Add([]byte(replicateFrame(f, api.DetectResponse{Verdict: vd("a.example")}) + "\x01"))
	f.Add([]byte(`{"results":null}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache := newMapCache()
		r := NewReplica(ReplicaConfig{}, cache, nil)
		rec := httptest.NewRecorder()
		r.handleReplicate(rec, httptest.NewRequest(http.MethodPost, replicatePath, strings.NewReader(string(data))))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 || cache.len() != 0 {
				t.Fatalf("refused body: status %d, %d ingested", rec.Code, cache.len())
			}
			return
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("ack %q: %v", rec.Body, err)
		}
		recs, err := vstore.DecodeFrames(data)
		if err != nil {
			t.Fatalf("handler accepted a body whose frames do not check and decode: %v", err)
		}
		carried := make(map[string]bool)
		for _, rec := range recs {
			carried[rec.Verdict.Domain] = true
		}
		if ack.Accepted != cache.len() || ack.Accepted > len(recs) {
			t.Fatalf("accepted %d with %d cached from %d records", ack.Accepted, cache.len(), len(recs))
		}
		for key := range cache.m {
			if key == "" || !carried[key] {
				t.Fatalf("ingested %q, which no record carries", key)
			}
		}
	})
}

// The internal/api wire goldens: an ensemble verdict and a legacy one.
const (
	ensembleItem = `{"domain":"xn--pple-43d.com","unicode":"аpple.com","idn":true,` +
		`"homograph":{"domain":"xn--pple-43d.com","unicode":"аpple.com","brand":"apple.com","ssim":0.975},` +
		`"statistical":{"domain":"xn--pple-43d.com","unicode":"аpple.com","score":0.9375,` +
		`"top":[{"feature":"confusable_mix","value":1,"impact":13.5},{"feature":"puny_expansion","value":0.25,"impact":3.5}]},` +
		`"confidence":{"homograph":0.975,"semantic":0,"statistical":0.9375},` +
		`"suspicion":"high","flagged":true,"cached":false}`
	legacyItem  = `{"domain":"example.com","unicode":"example.com","idn":false,"flagged":false,"cached":false}`
	goldenBatch = `{"count":2,"flagged":1,"results":[` + ensembleItem + `,` + legacyItem + `]}` + "\n"
	// trickyItem holds every byte the splitter must not take for
	// structure while inside a string.
	trickyItem = `{"input":"a]b,c{d}e[\"f\\","error":"\\\"]}"}`
)

// TestSplitBatchReply: the splitter hands back a worker reply's items
// byte for byte and refuses any reply that is not JSON, does not answer
// exactly the names sent, claims more flagged than it answers, or holds
// a result that is not an object.
func TestSplitBatchReply(t *testing.T) {
	flagged, items, err := splitBatchReply([]byte(goldenBatch), 2)
	if err != nil || flagged != 1 || len(items) != 2 ||
		string(items[0]) != ensembleItem || string(items[1]) != legacyItem {
		t.Fatalf("golden batch: flagged %d items %q, err %v", flagged, items, err)
	}
	tricky := `{"count":2,"flagged":0,"results":[` + trickyItem + `,{}]}`
	if _, items, err := splitBatchReply([]byte(tricky), 2); err != nil || len(items) != 2 || string(items[0]) != trickyItem {
		t.Fatalf("string bytes taken for structure: items %q, err %v", items, err)
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{goldenBatch[:len(goldenBatch)/2], 2},
		{goldenBatch, 3},
		{`{"count":3,"flagged":1,"results":[{},{}]}`, 3},
		{`{"count":3,"flagged":1,"results":[{},{}]}`, 2},
		{`{"count":1,"flagged":0,"results":[{}]`, 1},
		{`{"count":1,"flagged":0,"results":null}`, 1},
		{`{"count":1,"flagged":0,"results":[1]}`, 1},
		{`{"count":1,"flagged":0,"results":[null]}`, 1},
		{`{"count":1,"flagged":0,"results":["{}"]}`, 1},
		{`{"count":2,"flagged":0,"results":[{},[]]}`, 2},
		{`{"count":-1,"flagged":0,"results":[]}`, 0},
		{`{"count":"1","flagged":0,"results":[{}]}`, 1},
		{`{"count":999999999999999999,"flagged":0,"results":[]}`, 0},
		{`{"count":999999999999999999,"flagged":0,"results":[{}]}`, 1},
		{`{"count":99999999999999999999,"flagged":0,"results":[{}]}`, 1},
		{`{"count":1,"flagged":2,"results":[{}]}`, 1},
		{`{"count":1,"flagged":-1,"results":[{}]}`, 1},
		{`{"error":"worker shed"}`, 1},
		{``, 1},
	} {
		if _, items, err := splitBatchReply([]byte(c.body), c.want); err == nil {
			t.Errorf("accepted %q for %d names as %q", c.body, c.want, items)
		}
	}
}

// FuzzSplitBatchReply: the splitter never panics, and on a body it
// accepts for want names it returns want objects, each a verbatim run
// of the body's bytes, at most want of them flagged, and the same
// flagged count and items encoding/json reads from the body.
func FuzzSplitBatchReply(f *testing.F) {
	f.Add([]byte(goldenBatch), uint8(2))
	f.Add([]byte(`{"count":1,"flagged":1,"results":[`+ensembleItem+`]}`), uint8(1))
	f.Add([]byte(`{"count":3,"flagged":0,"results":[`+trickyItem+`,`+legacyItem+`,{}]}`), uint8(3))
	f.Add([]byte(goldenBatch[:len(goldenBatch)/2]), uint8(2))
	f.Add([]byte(`{"count":3,"flagged":1,"results":[{},{}]}`), uint8(3))
	f.Add([]byte(`{"count":1,"flagged":0,"results":null}`), uint8(1))
	f.Add([]byte(`{"count":999999999999999999,"flagged":0,"results":[]}`), uint8(0))
	f.Add([]byte(`{"count":1,"flagged":2,"results":[{}]}`), uint8(1))

	f.Fuzz(func(t *testing.T, body []byte, want uint8) {
		flagged, items, err := splitBatchReply(body, int(want))
		if err != nil {
			return
		}
		if len(items) != int(want) || flagged < 0 || flagged > int(want) {
			t.Fatalf("%q for %d names: %d items, %d flagged", body, want, len(items), flagged)
		}
		var std struct {
			Count, Flagged int
			Results        []json.RawMessage
		}
		if err := json.Unmarshal(body, &std); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", body, err)
		}
		if std.Count != int(want) || std.Flagged != flagged || len(std.Results) != len(items) {
			t.Fatalf("%q: split count %d flagged %d items %d, encoding/json %d %d %d",
				body, want, flagged, len(items), std.Count, std.Flagged, len(std.Results))
		}
		for i, item := range items {
			if len(item) == 0 || item[0] != '{' || !json.Valid(item) || !bytes.Contains(body, item) {
				t.Fatalf("%q: item %d %q is not an object copied from the body", body, i, item)
			}
			if !bytes.Equal(item, std.Results[i]) {
				t.Fatalf("%q: item %d split as %q, encoding/json %q", body, i, item, std.Results[i])
			}
		}
	})
}
