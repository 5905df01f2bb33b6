package dnssim

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	msg := &Message{
		ID:               0xBEEF,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: true,
		RCode:            RCodeNoError,
		Question:         []Question{{Name: "xn--0wwy37b.com", Type: TypeA}},
		Answers: []Record{
			{Name: "xn--0wwy37b.com", Type: TypeA, TTL: 300, Data: "192.0.2.7"},
			{Name: "xn--0wwy37b.com", Type: TypeA, TTL: 300, Data: "10.1.2.3"},
		},
	}
	wire, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg, back) {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, msg)
	}
}

func TestNSRecordRoundTrip(t *testing.T) {
	msg := &Message{
		ID:       7,
		Response: true,
		Question: []Question{{Name: "example.com", Type: TypeNS}},
		Answers:  []Record{{Name: "example.com", Type: TypeNS, TTL: 86400, Data: "ns1.dns-host.net"}},
	}
	wire, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Answers[0].Data != "ns1.dns-host.net" {
		t.Errorf("NS data = %q", back.Answers[0].Data)
	}
}

func TestRCodeRoundTrip(t *testing.T) {
	for _, rc := range []RCode{RCodeNoError, RCodeServFail, RCodeNXDomain, RCodeRefused} {
		msg := &Message{ID: 1, Response: true, RCode: rc,
			Question: []Question{{Name: "a.com", Type: TypeA}}}
		wire, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if back.RCode != rc {
			t.Errorf("rcode = %v, want %v", back.RCode, rc)
		}
	}
}

func TestDecodeCompressionPointer(t *testing.T) {
	// Build a message manually with a compressed answer name pointing at
	// the question name (offset 12).
	var wire []byte
	wire = put16(wire, 42)     // ID
	wire = put16(wire, 0x8400) // QR|AA
	wire = put16(wire, 1)      // QDCOUNT
	wire = put16(wire, 1)      // ANCOUNT
	wire = put16(wire, 0)
	wire = put16(wire, 0)
	var err error
	wire, err = appendName(wire, "example.com")
	if err != nil {
		t.Fatal(err)
	}
	wire = put16(wire, uint16(TypeA))
	wire = put16(wire, ClassIN)
	wire = append(wire, 0xC0, 12) // pointer to question name
	wire = put16(wire, uint16(TypeA))
	wire = put16(wire, ClassIN)
	wire = put32(wire, 60)
	wire = put16(wire, 4)
	wire = append(wire, 192, 0, 2, 1)

	msg, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Answers[0].Name != "example.com" || msg.Answers[0].Data != "192.0.2.1" {
		t.Errorf("answer = %+v", msg.Answers[0])
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0, 1, 0, 0, 0, 1}, // truncated header
	}
	for i, wire := range cases {
		if _, err := Decode(wire); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Forward pointer loop.
	var wire []byte
	wire = put16(wire, 1)
	wire = put16(wire, 0)
	wire = put16(wire, 1)
	wire = put16(wire, 0)
	wire = put16(wire, 0)
	wire = put16(wire, 0)
	wire = append(wire, 0xC0, 12) // points at itself
	wire = put16(wire, 1)
	wire = put16(wire, 1)
	if _, err := Decode(wire); !errors.Is(err, ErrBadPointer) {
		t.Errorf("self-pointer err = %v", err)
	}
}

func TestEncodeBadNames(t *testing.T) {
	long := make([]byte, 70)
	for i := range long {
		long[i] = 'a'
	}
	for _, name := range []string{"..", string(long) + ".com"} {
		m := &Message{Question: []Question{{Name: name, Type: TypeA}}}
		if _, err := m.Encode(); err == nil {
			t.Errorf("name %q encoded", name)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(id uint16, ttl uint32, a, b, c, d uint8) bool {
		msg := &Message{
			ID:       id,
			Response: true,
			Question: []Question{{Name: "quick.example.com", Type: TypeA}},
			Answers: []Record{{
				Name: "quick.example.com", Type: TypeA, TTL: ttl,
				Data: net.IPv4(a, b, c, d).String(),
			}},
		}
		wire, err := msg.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(wire)
		return err == nil && reflect.DeepEqual(msg, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestServer() *Server {
	s := NewServer()
	s.SetAnswer("good.com", "192.0.2.1", "192.0.2.2")
	s.SetBehavior("refused.com", BehaviorRefused)
	s.SetBehavior("broken.com", BehaviorServFail)
	return s
}

func TestServerHandle(t *testing.T) {
	s := newTestServer()
	r := NewInMemoryResolver(s)

	res, err := r.LookupA("good.com")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved() || len(res.IPs) != 2 {
		t.Errorf("good.com: %+v", res)
	}

	res, err = r.LookupA("refused.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != RCodeRefused || res.Resolved() {
		t.Errorf("refused.com: %+v", res)
	}

	res, err = r.LookupA("broken.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != RCodeServFail {
		t.Errorf("broken.com: %+v", res)
	}

	res, err = r.LookupA("missing.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != RCodeNXDomain {
		t.Errorf("missing.com: %+v", res)
	}
}

func TestServerCaseInsensitive(t *testing.T) {
	s := newTestServer()
	r := NewInMemoryResolver(s)
	res, err := r.LookupA("GOOD.COM")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved() {
		t.Errorf("case-folded lookup failed: %+v", res)
	}
}

func TestServerMultiQuestionFormErr(t *testing.T) {
	s := newTestServer()
	resp := s.Handle(&Message{ID: 1, Question: []Question{
		{Name: "a.com", Type: TypeA}, {Name: "b.com", Type: TypeA},
	}})
	if resp.RCode != RCodeFormErr {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestTransactionIDMismatchDetected(t *testing.T) {
	s := newTestServer()
	r := &Resolver{Exchange: func(query []byte) ([]byte, error) {
		resp, err := s.HandleWire(query)
		if err != nil {
			return nil, err
		}
		resp[0] ^= 0xFF // corrupt the transaction ID
		return resp, nil
	}}
	if _, err := r.LookupA("good.com"); err == nil {
		t.Error("ID mismatch not detected")
	}
}

func TestRCodeString(t *testing.T) {
	if RCodeRefused.String() != "REFUSED" || RCodeNXDomain.String() != "NXDOMAIN" {
		t.Error("rcode names wrong")
	}
	if RCode(9).String() != "RCODE9" {
		t.Error("unknown rcode formatting wrong")
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	msg := &Message{
		ID: 1, Response: true,
		Question: []Question{{Name: "xn--0wwy37b.com", Type: TypeA}},
		Answers:  []Record{{Name: "xn--0wwy37b.com", Type: TypeA, TTL: 300, Data: "192.0.2.1"}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := msg.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerLookup(b *testing.B) {
	s := newTestServer()
	r := NewInMemoryResolver(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupA("good.com"); err != nil {
			b.Fatal(err)
		}
	}
}
