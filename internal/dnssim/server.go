package dnssim

import (
	"fmt"
	"strings"
	"sync"
)

// Behavior is a name server's configured handling of one domain.
type Behavior int

// Server behaviors per domain.
const (
	// BehaviorAnswer serves the configured records.
	BehaviorAnswer Behavior = iota + 1
	// BehaviorRefused answers REFUSED — the misconfiguration the paper
	// identifies behind the IDN "not resolved" census (§IV-D).
	BehaviorRefused
	// BehaviorServFail answers SERVFAIL.
	BehaviorServFail
)

// zoneEntry is the server's state for one name.
type zoneEntry struct {
	behavior Behavior
	records  []Record
}

// Server is an authoritative DNS server over an in-memory zone. It is
// safe for concurrent use after configuration.
type Server struct {
	mu      sync.RWMutex
	entries map[string]zoneEntry
}

// NewServer returns an empty authoritative server.
func NewServer() *Server {
	return &Server{entries: make(map[string]zoneEntry)}
}

// SetAnswer configures A records for a domain.
func (s *Server) SetAnswer(domain string, ips ...string) {
	records := make([]Record, 0, len(ips))
	for _, ip := range ips {
		records = append(records, Record{Name: strings.ToLower(domain), Type: TypeA, TTL: 300, Data: ip})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[strings.ToLower(domain)] = zoneEntry{behavior: BehaviorAnswer, records: records}
}

// SetBehavior configures a non-answering behavior for a domain.
func (s *Server) SetBehavior(domain string, b Behavior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[strings.ToLower(domain)] = zoneEntry{behavior: b}
}

// Handle answers one query message.
func (s *Server) Handle(query *Message) *Message {
	resp := &Message{
		ID:            query.ID,
		Response:      true,
		Authoritative: true,
		Question:      query.Question,
	}
	if len(query.Question) != 1 {
		resp.RCode = RCodeFormErr
		return resp
	}
	q := query.Question[0]
	s.mu.RLock()
	entry, ok := s.entries[strings.ToLower(q.Name)]
	s.mu.RUnlock()
	if !ok {
		resp.RCode = RCodeNXDomain
		return resp
	}
	switch entry.behavior {
	case BehaviorRefused:
		resp.RCode = RCodeRefused
	case BehaviorServFail:
		resp.RCode = RCodeServFail
	default:
		for _, rr := range entry.records {
			if rr.Type == q.Type {
				resp.Answers = append(resp.Answers, rr)
			}
		}
	}
	return resp
}

// HandleWire answers a wire-format query with a wire-format response.
func (s *Server) HandleWire(wire []byte) ([]byte, error) {
	query, err := Decode(wire)
	if err != nil {
		return nil, err
	}
	return s.Handle(query).Encode()
}

// Result is a resolver's view of one lookup.
type Result struct {
	// RCode is the final response code.
	RCode RCode
	// IPs are the A answers when RCode is NOERROR.
	IPs []string
}

// Resolved reports whether the lookup produced usable addresses.
func (r Result) Resolved() bool { return r.RCode == RCodeNoError && len(r.IPs) > 0 }

// Resolver is a stub resolver over a query transport.
type Resolver struct {
	// Exchange sends one wire-format query and returns the wire-format
	// response.
	Exchange func(query []byte) ([]byte, error)
	nextID   uint16
	mu       sync.Mutex
}

// NewInMemoryResolver wires a resolver directly to a server, with no
// sockets — the fast path the crawler uses.
func NewInMemoryResolver(s *Server) *Resolver {
	return &Resolver{Exchange: s.HandleWire}
}

// LookupA resolves a domain's A records through the transport.
func (r *Resolver) LookupA(domain string) (Result, error) {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	query := &Message{
		ID:               id,
		RecursionDesired: true,
		Question:         []Question{{Name: strings.ToLower(domain), Type: TypeA}},
	}
	wire, err := query.Encode()
	if err != nil {
		return Result{}, err
	}
	respWire, err := r.Exchange(wire)
	if err != nil {
		return Result{}, err
	}
	resp, err := Decode(respWire)
	if err != nil {
		return Result{}, err
	}
	if resp.ID != id {
		return Result{}, fmt.Errorf("dnssim: transaction ID mismatch: %d != %d", resp.ID, id)
	}
	out := Result{RCode: resp.RCode}
	for _, rr := range resp.Answers {
		if rr.Type == TypeA {
			out.IPs = append(out.IPs, rr.Data)
		}
	}
	return out, nil
}
