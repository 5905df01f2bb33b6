package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/core"
)

// digestNames is the fixed name list the wire digests cover: stat-fixture
// labels (flagged and unflagged attacks, benign IDNs), then homographs,
// Type-1 semantic names, ASCII names and one invalid name.
func digestNames(t *testing.T) []string {
	t.Helper()
	m, exs := statModel(t)
	var flagged, unflagged, benign []string
	seen := map[string]bool{}
	for i := range exs {
		e := &exs[i]
		name := e.ACELabel + "." + e.TLD
		if seen[name] {
			continue
		}
		seen[name] = true
		switch {
		case e.Positive && m.Flag(m.ScoreLabel(e.Label, e.ACELabel, e.TLD)):
			if len(flagged) < 80 {
				flagged = append(flagged, name)
			}
		case e.Positive:
			if len(unflagged) < 40 {
				unflagged = append(unflagged, name)
			}
		case strings.HasPrefix(e.ACELabel, "xn--"):
			if len(benign) < 80 {
				benign = append(benign, name)
			}
		}
	}
	names := append(append(flagged, unflagged...), benign...)
	names = append(names,
		"xn--pple-43d.com", "xn--80ak6aa92e.com", "xn--ggle-55da.com", "fаcebооk.com", "pаypal.com",
		"apple邮箱.com", "ap邮p箱le.com", "google商店.net", "amazon购物.com", "facebook登录.org", "微信apple.com",
		"example.com", "google.com", "apple.com", "a-b-c.net", "bad..x")
	// One spelling per name: a repeat would be a cache hit or a
	// coalesced wait depending on the batch's fan-out timing.
	aces := map[string]bool{}
	for _, name := range names {
		if n, err := core.Normalize(name); err == nil {
			if aces[n.ACE] {
				t.Fatalf("%s repeats %s", name, n.ACE)
			}
			aces[n.ACE] = true
		}
	}
	return names
}

// TestVerdictWireDigest pins the exact wire bytes of the verdicts over
// digestNames: once through Classifier.Verdict with and without a
// statistical model, encoded by the append codec, and once through the
// service's batch handler. Any change to a verdict field, the
// contribution order, the semantic keyword or the codec moves a digest.
func TestVerdictWireDigest(t *testing.T) {
	m, _ := statModel(t)
	names := digestNames(t)
	if len(names) > api.MaxBatch {
		t.Fatalf("%d names exceed one batch", len(names))
	}
	classify := func(cls *core.Classifier) string {
		h := sha256.New()
		var buf []byte
		for _, name := range names {
			n, err := core.Normalize(name)
			if err != nil {
				continue
			}
			v := cls.Verdict(n)
			r := api.DetectResponse{Verdict: v, Flagged: v.Flagged()}
			if buf, err = api.AppendDetectResponse(buf[:0], &r); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	stat := classify(core.NewClassifier(core.DetectorConfig{TopK: 1000, Stat: m}))
	plain := classify(core.NewClassifier(core.DetectorConfig{TopK: 1000}))

	s := NewServer(Config{TopK: 1000, Stat: m, Workers: 2})
	body, err := json.Marshal(api.BatchRequest{Domains: names})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	sum := sha256.Sum256(rec.Body.Bytes())
	batch := hex.EncodeToString(sum[:])

	for _, c := range []struct{ what, got, want string }{
		{"stat classifier", stat, "62ef3c6551d3c0eeb8b5de32d78b3218a350218bf9249e3676f155d69e078931"},
		{"plain classifier", plain, "e70fb4c9ccb8334d48fc0bc340698791a9071bc0643bb4dda0d4323f091ba9cd"},
		{"batch handler", batch, "63176044fb6cf723b208efa3fda6c6d5680fc41e9b59fdbc25c49c6fdcaffd96"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest = %s, want %s", c.what, c.got, c.want)
		}
	}
}
