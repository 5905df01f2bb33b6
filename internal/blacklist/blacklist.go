// Package blacklist models URL/domain blacklist feeds and their union.
//
// The paper unioned three commercial feeds — VirusTotal, Qihoo 360 and
// Baidu — and "if an IDN is alarmed by any of the blacklists, we considered
// the IDN as malicious", labelling 6,241 IDNs (0.42%). The generator
// populates three synthetic feeds at the per-TLD rates of Table I; this
// package provides the feed and aggregate types the pipeline queries.
package blacklist

import "strings"

// Feed names mirroring the paper's three sources.
const (
	FeedVirusTotal = "VirusTotal"
	Feed360        = "360"
	FeedBaidu      = "Baidu"
)

// Feed is one blacklist source: a set of domains.
type Feed struct {
	domains map[string]struct{}
}

// NewFeed returns an empty feed.
func NewFeed() *Feed {
	return &Feed{domains: make(map[string]struct{})}
}

// Add inserts a domain into the feed (case-insensitive).
func (f *Feed) Add(domain string) {
	f.domains[strings.ToLower(domain)] = struct{}{}
}

// Contains reports whether the feed flags the domain.
func (f *Feed) Contains(domain string) bool {
	_, ok := f.domains[strings.ToLower(domain)]
	return ok
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

// IsMalicious reports whether any member feed flags the domain.
func (a *Aggregate) IsMalicious(domain string) bool {
	for _, f := range a.feeds {
		if f.Contains(domain) {
			return true
		}
	}
	return false
}
