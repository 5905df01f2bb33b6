package serve

import (
	"bytes"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/core"
)

// FuzzDecodeDetect drives the /v1/detect request decoder and the
// normalization behind it with arbitrary bytes: decoding, label
// normalization and the Punycode round-trip must never panic, and a
// domain that normalizes successfully must re-normalize to the same
// fixed point (the ACE form is the cache key — if normalization were
// not idempotent, one name could occupy several cache entries and
// verdicts could disagree between spellings).
func FuzzDecodeDetect(f *testing.F) {
	f.Add([]byte(`{"domain":"xn--pple-43d.com"}`))
	f.Add([]byte(`{"domain":"аpple.com"}`))
	f.Add([]byte(`{"domain":"apple邮箱.com"}`))
	f.Add([]byte(`{"domain":"example.com"}`))
	f.Add([]byte(`{"domain":"EXAMPLE.COM."}`))
	f.Add([]byte(`{"domain":"xn--0.com"}`))
	f.Add([]byte(`{"domain":"..."}`))
	f.Add([]byte(`{"domains":["a.com"]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"domain\":\"\xff\xfe.com\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := api.DecodeDetect(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		n, err := core.Normalize(req.Domain)
		if err != nil {
			return
		}
		// Punycode round-trip fixed point: normalizing the ACE form
		// again must reproduce it exactly.
		n2, err := core.Normalize(n.ACE)
		if err != nil {
			t.Fatalf("ACE form %q (from %q) failed to re-normalize: %v", n.ACE, req.Domain, err)
		}
		if n2.ACE != n.ACE || n2.Unicode != n.Unicode || n2.Label != n.Label || n2.ASCII != n.ASCII {
			t.Fatalf("normalization not idempotent for %q: %+v vs %+v", req.Domain, n, n2)
		}
		// The Unicode display form need not round-trip (hyper-encoded
		// labels — a label decoding to "xn--"+non-ASCII — are display-
		// ambiguous by construction), but when it does normalize it must
		// land on the same ACE cache key.
		if n3, err := core.Normalize(n.Unicode); err == nil && n3.ACE != n.ACE {
			t.Fatalf("spellings diverge: %q → %q, %q → %q", req.Domain, n.ACE, n.Unicode, n3.ACE)
		}
	})
}

// FuzzDecodeBatch is the batch-body counterpart: any byte sequence must
// decode or error, never panic, and the cap must hold.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"domains":["xn--pple-43d.com","example.com"]}`))
	f.Add([]byte(`{"domains":[]}`))
	f.Add([]byte(`{"domains":["a.com","b.com","c.com"]}`))
	f.Add([]byte(`{"domain":"a.com"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := api.DecodeBatch(bytes.NewReader(data), 2)
		if err != nil {
			return
		}
		if len(req.Domains) == 0 || len(req.Domains) > 2 {
			t.Fatalf("decoded batch violates bounds: %d items", len(req.Domains))
		}
	})
}
