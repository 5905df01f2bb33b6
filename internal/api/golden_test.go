package api

import (
	"encoding/json"
	"testing"

	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// The wire format is a compatibility contract three ways: pre-ensemble
// clients must keep working against ensemble-enabled servers, ensemble
// fields must survive a decode→re-encode round trip byte-for-byte, and
// servers without a statistical model
// must emit bytes identical to the pre-ensemble format. These goldens
// pin all three. If one fails because the format deliberately changed,
// update the golden AND bump the compatibility notes in DESIGN.md.

// ensembleResponse is a fully populated three-detector verdict as an
// ensemble-enabled worker would emit it.
func ensembleResponse() DetectResponse {
	return DetectResponse{
		Verdict: core.Verdict{
			Domain:  "xn--pple-43d.com",
			Unicode: "аpple.com",
			IDN:     true,
			Homograph: &core.HomographMatch{
				Domain:  "xn--pple-43d.com",
				Unicode: "аpple.com",
				Brand:   "apple.com",
				SSIM:    0.975,
			},
			Statistical: &core.StatMatch{
				Domain:  "xn--pple-43d.com",
				Unicode: "аpple.com",
				Score:   0.9375,
				Top: []feat.Contribution{
					{Feature: "confusable_mix", Value: 1, Impact: 13.5},
					{Feature: "puny_expansion", Value: 0.25, Impact: 3.5},
				},
			},
			Confidence: &core.EnsembleConfidence{
				Homograph:   0.975,
				Semantic:    0,
				Statistical: 0.9375,
			},
			Suspicion: core.SuspicionHigh,
		},
		Flagged: true,
	}
}

const ensembleGolden = `{"domain":"xn--pple-43d.com","unicode":"аpple.com","idn":true,` +
	`"homograph":{"domain":"xn--pple-43d.com","unicode":"аpple.com","brand":"apple.com","ssim":0.975},` +
	`"statistical":{"domain":"xn--pple-43d.com","unicode":"аpple.com","score":0.9375,` +
	`"top":[{"feature":"confusable_mix","value":1,"impact":13.5},{"feature":"puny_expansion","value":0.25,"impact":3.5}]},` +
	`"confidence":{"homograph":0.975,"semantic":0,"statistical":0.9375},` +
	`"suspicion":"high","flagged":true,"cached":false}`

// legacyGolden is the pre-ensemble two-detector format — what a worker
// without a statistical model emits, and what every client built before
// the ensemble understood.
const legacyGolden = `{"domain":"example.com","unicode":"example.com","idn":false,"flagged":false,"cached":false}`

func TestGoldenEnsembleEncoding(t *testing.T) {
	got, err := json.Marshal(ensembleResponse())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != ensembleGolden {
		t.Errorf("ensemble wire bytes drifted:\n got %s\nwant %s", got, ensembleGolden)
	}
}

func TestGoldenLegacyEncodingUnchanged(t *testing.T) {
	// A verdict with no ensemble state must serialize exactly as before
	// the ensemble existed: no statistical/confidence/suspicion keys.
	resp := DetectResponse{Verdict: core.Verdict{Domain: "example.com", Unicode: "example.com"}}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != legacyGolden {
		t.Errorf("legacy wire bytes drifted:\n got %s\nwant %s", got, legacyGolden)
	}
}

// TestScatterGatherRoundTrip pins that decoding a verdict into
// DetectResponse and re-encoding it is lossless for both formats: the
// reason a gateway that splices a worker's item bytes answers exactly
// what one that decoded and re-encoded them would.
func TestScatterGatherRoundTrip(t *testing.T) {
	for _, golden := range []string{ensembleGolden, legacyGolden} {
		var resp DetectResponse
		if err := json.Unmarshal([]byte(golden), &resp); err != nil {
			t.Fatalf("unmarshal %s: %v", golden, err)
		}
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != golden {
			t.Errorf("round trip not lossless:\n got %s\nwant %s", out, golden)
		}
	}
}

// TestBatchRoundTrip does the same through the BatchResponse envelope
// the gateway actually reassembles, mixing verdicts with a per-item
// error entry.
func TestBatchRoundTrip(t *testing.T) {
	batch := BatchResponse{
		Count:   3,
		Flagged: 1,
		Results: []DetectResponse{
			ensembleResponse(),
			{Verdict: core.Verdict{Domain: "example.com", Unicode: "example.com"}},
			{Input: "bad..domain", Error: "invalid domain"},
		},
	}
	first, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var decoded BatchResponse
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("batch round trip not lossless:\n got %s\nwant %s", second, first)
	}
}

// legacyClient mirrors the response struct shipped in pre-ensemble
// clients (no statistical, confidence or suspicion fields). Frozen:
// changing it would defeat the test's purpose.
type legacyClient struct {
	Domain    string               `json:"domain"`
	Unicode   string               `json:"unicode"`
	IDN       bool                 `json:"idn"`
	Homograph *core.HomographMatch `json:"homograph,omitempty"`
	Semantic  *core.SemanticMatch  `json:"semantic,omitempty"`
	Flagged   bool                 `json:"flagged"`
	Cached    bool                 `json:"cached"`
	Input     string               `json:"input,omitempty"`
	Error     string               `json:"error,omitempty"`
}

func TestBackCompatOldClientNewServer(t *testing.T) {
	// A pre-ensemble client decoding an ensemble-enabled reply must see
	// every field it knows about, unharmed by the keys it doesn't.
	var old legacyClient
	if err := json.Unmarshal([]byte(ensembleGolden), &old); err != nil {
		t.Fatalf("old client rejects ensemble reply: %v", err)
	}
	if old.Domain != "xn--pple-43d.com" || !old.Flagged || old.Homograph == nil ||
		old.Homograph.Brand != "apple.com" || old.Homograph.SSIM != 0.975 {
		t.Errorf("old client misread ensemble reply: %+v", old)
	}
}

func TestBackCompatNewClientOldServer(t *testing.T) {
	// The current struct decoding a pre-ensemble reply must leave every
	// ensemble field at its zero value — absence of evidence, not a
	// fabricated "none".
	var resp DetectResponse
	if err := json.Unmarshal([]byte(legacyGolden), &resp); err != nil {
		t.Fatalf("decode legacy reply: %v", err)
	}
	if resp.Statistical != nil || resp.Confidence != nil || resp.Suspicion != "" {
		t.Errorf("legacy reply grew ensemble state: %+v", resp.Verdict)
	}
	if resp.Domain != "example.com" || resp.Flagged {
		t.Errorf("legacy fields misread: %+v", resp)
	}
}
