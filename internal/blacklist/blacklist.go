// Package blacklist models URL/domain blacklist feeds and their union.
//
// The paper unioned three commercial feeds — VirusTotal, Qihoo 360 and
// Baidu — and "if an IDN is alarmed by any of the blacklists, we considered
// the IDN as malicious", labelling 6,241 IDNs (0.42%). The generator
// populates three synthetic feeds at the per-TLD rates of Table I; this
// package provides the feed and aggregate types the pipeline queries.
package blacklist

import (
	"sort"
	"strings"
)

// Feed names mirroring the paper's three sources.
const (
	FeedVirusTotal = "VirusTotal"
	Feed360        = "360"
	FeedBaidu      = "Baidu"
)

// Feed is one blacklist source: a named set of domains.
type Feed struct {
	name    string
	domains map[string]struct{}
}

// NewFeed returns an empty feed with the given display name.
func NewFeed(name string) *Feed {
	return &Feed{name: name, domains: make(map[string]struct{})}
}

// Name returns the feed's display name.
func (f *Feed) Name() string { return f.name }

// Add inserts a domain into the feed (case-insensitive).
func (f *Feed) Add(domain string) {
	f.domains[strings.ToLower(domain)] = struct{}{}
}

// Contains reports whether the feed flags the domain.
func (f *Feed) Contains(domain string) bool {
	_, ok := f.domains[strings.ToLower(domain)]
	return ok
}

// Len returns the number of flagged domains.
func (f *Feed) Len() int { return len(f.domains) }

// Domains returns all flagged domains, sorted.
func (f *Feed) Domains() []string {
	out := make([]string, 0, len(f.domains))
	for d := range f.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Aggregate is the union of several feeds — the paper's "malicious"
// labelling function.
type Aggregate struct {
	feeds []*Feed
}

// NewAggregate unions the given feeds. The feed slice is copied.
func NewAggregate(feeds ...*Feed) *Aggregate {
	fs := make([]*Feed, len(feeds))
	copy(fs, feeds)
	return &Aggregate{feeds: fs}
}

// Feeds returns the member feeds in construction order.
func (a *Aggregate) Feeds() []*Feed {
	out := make([]*Feed, len(a.feeds))
	copy(out, a.feeds)
	return out
}

// IsMalicious reports whether any member feed flags the domain.
func (a *Aggregate) IsMalicious(domain string) bool {
	for _, f := range a.feeds {
		if f.Contains(domain) {
			return true
		}
	}
	return false
}
