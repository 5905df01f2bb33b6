// Package dnssim implements the DNS substrate under the measurement: an
// RFC 1035 wire-format codec, an authoritative name server loaded from
// the synthetic registry, and a stub resolver. The paper observes that
// "all IDNs in zone files have associated NS records so all resolution
// errors come from name servers (e.g., DNS REFUSED error)" (§IV-D); this
// package makes that concrete — unresolvable domains are served an actual
// REFUSED response, and the crawler's "not resolved" outcome is the
// resolver's observation of that rcode.
package dnssim

import (
	"errors"
	"fmt"
	"strings"
)

// RCode is a DNS response code (RFC 1035 §4.1.1).
type RCode uint8

// Response codes used by the simulator.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

var rcodeNames = map[RCode]string{
	RCodeNoError:  "NOERROR",
	RCodeFormErr:  "FORMERR",
	RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN",
	RCodeNotImp:   "NOTIMP",
	RCodeRefused:  "REFUSED",
}

// String returns the conventional rcode mnemonic.
func (rc RCode) String() string {
	if n, ok := rcodeNames[rc]; ok {
		return n
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Type is a resource-record type.
type Type uint16

// Record types supported by the simulator.
const (
	TypeA  Type = 1
	TypeNS Type = 2
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Question is the query section entry.
type Question struct {
	// Name is the queried domain (ASCII/ACE form, no trailing dot).
	Name string
	// Type is the queried record type.
	Type Type
}

// Record is one answer/authority resource record.
type Record struct {
	// Name owns the record.
	Name string
	// Type of the record data.
	Type Type
	// TTL in seconds.
	TTL uint32
	// Data: dotted-quad for A, target name for NS.
	Data string
}

// Message is a DNS query or response.
type Message struct {
	// ID is the transaction identifier.
	ID uint16
	// Response marks QR=1.
	Response bool
	// Authoritative marks AA=1.
	Authoritative bool
	// RecursionDesired carries RD.
	RecursionDesired bool
	// RCode is the response code.
	RCode RCode
	// Question holds exactly zero or one question in this simulator.
	Question []Question
	// Answers holds the answer section.
	Answers []Record
}

// Errors returned by the codec.
var (
	// ErrTruncatedMessage reports a message shorter than its structure.
	ErrTruncatedMessage = errors.New("dnssim: truncated message")
	// ErrBadName reports an unencodable or undecodable domain name.
	ErrBadName = errors.New("dnssim: bad domain name")
	// ErrBadPointer reports an invalid compression pointer.
	ErrBadPointer = errors.New("dnssim: bad compression pointer")
)

// appendName encodes a domain name as length-prefixed labels.
func appendName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
			}
			buf = append(buf, byte(len(label)))
			buf = append(buf, label...)
		}
	}
	return append(buf, 0), nil
}

// readName decodes a (possibly compressed) domain name starting at off,
// returning the name and the offset just past its in-place encoding.
func readName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	next := off
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			return sb.String(), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
			}
			if ptr >= off || hops > 32 {
				return "", 0, ErrBadPointer
			}
			off = ptr
			jumped = true
			hops++
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type", ErrBadName)
		default:
			end := off + 1 + int(b)
			if end > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : end])
			off = end
		}
	}
}

// put16 appends a big-endian uint16.
func put16(buf []byte, v uint16) []byte { return append(buf, byte(v>>8), byte(v)) }

// put32 appends a big-endian uint32.
func put32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func read16(msg []byte, off int) (uint16, int, error) {
	if off+2 > len(msg) {
		return 0, 0, ErrTruncatedMessage
	}
	return uint16(msg[off])<<8 | uint16(msg[off+1]), off + 2, nil
}

func read32(msg []byte, off int) (uint32, int, error) {
	if off+4 > len(msg) {
		return 0, 0, ErrTruncatedMessage
	}
	v := uint32(msg[off])<<24 | uint32(msg[off+1])<<16 | uint32(msg[off+2])<<8 | uint32(msg[off+3])
	return v, off + 4, nil
}

// Encode serializes the message to wire format (no name compression).
func (m *Message) Encode() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = put16(buf, m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	flags |= uint16(m.RCode) & 0x0F
	buf = put16(buf, flags)
	buf = put16(buf, uint16(len(m.Question)))
	buf = put16(buf, uint16(len(m.Answers)))
	buf = put16(buf, 0) // NSCOUNT
	buf = put16(buf, 0) // ARCOUNT
	var err error
	for _, q := range m.Question {
		if buf, err = appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = put16(buf, uint16(q.Type))
		buf = put16(buf, ClassIN)
	}
	for _, rr := range m.Answers {
		if buf, err = appendName(buf, rr.Name); err != nil {
			return nil, err
		}
		buf = put16(buf, uint16(rr.Type))
		buf = put16(buf, ClassIN)
		buf = put32(buf, rr.TTL)
		rdata, err := encodeRData(rr)
		if err != nil {
			return nil, err
		}
		buf = put16(buf, uint16(len(rdata)))
		buf = append(buf, rdata...)
	}
	return buf, nil
}

func encodeRData(rr Record) ([]byte, error) {
	switch rr.Type {
	case TypeA:
		var quad [4]int
		if _, err := fmt.Sscanf(rr.Data, "%d.%d.%d.%d", &quad[0], &quad[1], &quad[2], &quad[3]); err != nil {
			return nil, fmt.Errorf("dnssim: bad A rdata %q: %w", rr.Data, err)
		}
		out := make([]byte, 4)
		for i, v := range quad {
			if v < 0 || v > 255 {
				return nil, fmt.Errorf("dnssim: bad A octet %d", v)
			}
			out[i] = byte(v)
		}
		return out, nil
	case TypeNS:
		return appendName(nil, rr.Data)
	default:
		return []byte(rr.Data), nil
	}
}

// Decode parses a wire-format message.
func Decode(wire []byte) (*Message, error) {
	m := &Message{}
	var err error
	off := 0
	var v uint16
	if m.ID, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	if v, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	m.Response = v&(1<<15) != 0
	m.Authoritative = v&(1<<10) != 0
	m.RecursionDesired = v&(1<<8) != 0
	m.RCode = RCode(v & 0x0F)
	var qd, an uint16
	if qd, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	if an, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	// Skip NSCOUNT/ARCOUNT (always zero from this encoder).
	if _, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	if _, off, err = read16(wire, off); err != nil {
		return nil, err
	}
	for i := 0; i < int(qd); i++ {
		var name string
		if name, off, err = readName(wire, off); err != nil {
			return nil, err
		}
		var qt uint16
		if qt, off, err = read16(wire, off); err != nil {
			return nil, err
		}
		if _, off, err = read16(wire, off); err != nil { // class
			return nil, err
		}
		m.Question = append(m.Question, Question{Name: name, Type: Type(qt)})
	}
	for i := 0; i < int(an); i++ {
		var rr Record
		if rr.Name, off, err = readName(wire, off); err != nil {
			return nil, err
		}
		var rt uint16
		if rt, off, err = read16(wire, off); err != nil {
			return nil, err
		}
		rr.Type = Type(rt)
		if _, off, err = read16(wire, off); err != nil { // class
			return nil, err
		}
		if rr.TTL, off, err = read32(wire, off); err != nil {
			return nil, err
		}
		var rdlen uint16
		if rdlen, off, err = read16(wire, off); err != nil {
			return nil, err
		}
		if off+int(rdlen) > len(wire) {
			return nil, ErrTruncatedMessage
		}
		switch rr.Type {
		case TypeA:
			if rdlen != 4 {
				return nil, fmt.Errorf("dnssim: A rdata length %d", rdlen)
			}
			rr.Data = fmt.Sprintf("%d.%d.%d.%d", wire[off], wire[off+1], wire[off+2], wire[off+3])
			off += 4
		case TypeNS:
			var target string
			if target, _, err = readName(wire, off); err != nil {
				return nil, err
			}
			rr.Data = target
			off += int(rdlen)
		default:
			rr.Data = string(wire[off : off+int(rdlen)])
			off += int(rdlen)
		}
		m.Answers = append(m.Answers, rr)
	}
	return m, nil
}
