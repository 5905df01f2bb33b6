// Package whois models domain registration records, their text wire
// format, and the lookup store the measurement correlates IDNs against.
//
// The paper obtained WHOIS for 739,160 (50.19%) of its IDNs via industrial
// partners and parsed them "using a variety of tools, like python-whois",
// with the remainder missing due to registrar blocking and parser failures
// (only 1.1% of iTLD records parsed). The generator (package zonegen)
// reproduces that missingness structure; this package provides the record
// model, a reversible text codec in the de-facto RDAP-era key:value WHOIS
// style, and an in-memory store.
package whois

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Record is one parsed WHOIS registration record.
type Record struct {
	// Domain is the registered SLD in ACE form, e.g. "xn--0wwy37b.com".
	Domain string
	// Registrar is the sponsoring registrar's display name.
	Registrar string
	// RegistrantEmail is the registrant contact address; empty when the
	// registration is protected by a WHOIS privacy service.
	RegistrantEmail string
	// Created is the registration creation date.
	Created time.Time
	// Expires is the current expiry date.
	Expires time.Time
	// NameServers lists the delegated name servers.
	NameServers []string
	// Privacy reports whether the record is behind WHOIS privacy.
	Privacy bool
}

// Errors returned by Parse.
var (
	// ErrMissingDomain reports a record without a Domain Name field.
	ErrMissingDomain = errors.New("whois: record missing domain name")
	// ErrBadRecord reports a malformed field line.
	ErrBadRecord = errors.New("whois: malformed record")
)

// timeLayout is the timestamp format used on the wire (RFC 3339, UTC).
const timeLayout = "2006-01-02T15:04:05Z"

// Render serializes the record in key:value WHOIS text form. Rendering is
// deterministic (fixed field order) and reversible with Parse.
func Render(rec Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain Name: %s\n", strings.ToUpper(rec.Domain))
	if rec.Registrar != "" {
		fmt.Fprintf(&b, "Registrar: %s\n", rec.Registrar)
	}
	if !rec.Created.IsZero() {
		fmt.Fprintf(&b, "Creation Date: %s\n", rec.Created.UTC().Format(timeLayout))
	}
	if !rec.Expires.IsZero() {
		fmt.Fprintf(&b, "Registry Expiry Date: %s\n", rec.Expires.UTC().Format(timeLayout))
	}
	if rec.Privacy {
		b.WriteString("Registrant Organization: REDACTED FOR PRIVACY\n")
	} else if rec.RegistrantEmail != "" {
		fmt.Fprintf(&b, "Registrant Email: %s\n", rec.RegistrantEmail)
	}
	for _, ns := range rec.NameServers {
		fmt.Fprintf(&b, "Name Server: %s\n", strings.ToUpper(ns))
	}
	b.WriteString(">>> Last update of whois database <<<\n")
	return b.String()
}

// Parse reads one WHOIS text record. Unknown fields are ignored, matching
// how real WHOIS parsers behave across registrar formats.
func Parse(r io.Reader) (Record, error) {
	var rec Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ">>>") || strings.HasPrefix(line, "%") {
			continue
		}
		key, value, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "Domain Name":
			rec.Domain = strings.ToLower(value)
		case "Registrar":
			rec.Registrar = value
		case "Creation Date":
			t, err := time.Parse(timeLayout, value)
			if err != nil {
				return Record{}, fmt.Errorf("%w: creation date %q", ErrBadRecord, value)
			}
			rec.Created = t
		case "Registry Expiry Date":
			t, err := time.Parse(timeLayout, value)
			if err != nil {
				return Record{}, fmt.Errorf("%w: expiry date %q", ErrBadRecord, value)
			}
			rec.Expires = t
		case "Registrant Email":
			rec.RegistrantEmail = strings.ToLower(value)
		case "Registrant Organization":
			if strings.EqualFold(value, "REDACTED FOR PRIVACY") {
				rec.Privacy = true
			}
		case "Name Server":
			rec.NameServers = append(rec.NameServers, strings.ToLower(value))
		}
	}
	if err := sc.Err(); err != nil {
		return Record{}, fmt.Errorf("whois: read: %w", err)
	}
	if rec.Domain == "" {
		return Record{}, ErrMissingDomain
	}
	return rec, nil
}

// Store is an in-memory WHOIS database keyed by domain. Coverage gaps are
// represented by absence. Store is not safe for concurrent mutation; the
// pipeline builds it once, then reads concurrently.
type Store struct {
	records map[string]Record
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{records: make(map[string]Record)}
}

// Put inserts or replaces a record.
func (s *Store) Put(rec Record) {
	s.records[strings.ToLower(rec.Domain)] = rec
}

// Get looks up the record for a domain.
func (s *Store) Get(domain string) (Record, bool) {
	rec, ok := s.records[strings.ToLower(domain)]
	return rec, ok
}

// Len returns the number of records (the WHOIS coverage numerator of
// Table I).
func (s *Store) Len() int { return len(s.records) }

// GroupCount is a (key, count) aggregation row used by the registrar and
// registrant rankings (Tables III and IV).
type GroupCount struct {
	Key   string
	Count int
}

// TopRegistrars ranks registrars by number of records, descending, ties by
// name. Records with empty registrar are skipped.
func (s *Store) TopRegistrars(k int) []GroupCount {
	return s.topBy(k, func(r Record) string { return r.Registrar })
}

// TopRegistrantEmails ranks registrant emails by number of records,
// descending. Privacy-protected and empty emails are skipped.
func (s *Store) TopRegistrantEmails(k int) []GroupCount {
	return s.topBy(k, func(r Record) string {
		if r.Privacy {
			return ""
		}
		return r.RegistrantEmail
	})
}

func (s *Store) topBy(k int, key func(Record) string) []GroupCount {
	counts := make(map[string]int)
	for _, rec := range s.records {
		if kv := key(rec); kv != "" {
			counts[kv]++
		}
	}
	out := make([]GroupCount, 0, len(counts))
	for kv, n := range counts {
		out = append(out, GroupCount{Key: kv, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// RegistrarCount returns the number of distinct registrars (the paper
// found over 700 for IDNs, over 1,500 for the non-IDN sample).
func (s *Store) RegistrarCount() int {
	set := make(map[string]struct{})
	for _, rec := range s.records {
		if rec.Registrar != "" {
			set[rec.Registrar] = struct{}{}
		}
	}
	return len(set)
}
