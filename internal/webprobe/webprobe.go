// Package webprobe implements the web-content substrate: it serves
// synthetic HTTP responses for domains according to their hidden hosting
// profile, and classifies responses into the usage categories of the
// paper's Table V (not resolved / error / empty / parked / for sale /
// redirected / meaningful content).
//
// The paper's authors crawled homepages and manually classified stratified
// samples of 500 IDNs and 500 non-IDNs. Here the crawl is simulated — the
// generator assigns each domain a hosting profile at Table V rates — but
// the classification is real: the classifier inspects the served response
// (status, location, body markers) without access to the hidden profile,
// and the pipeline reports what the classifier recovers.
package webprobe

import (
	"fmt"
	"strings"
)

// State is a Table V usage category.
type State int

// Usage categories in Table V row order.
const (
	NotResolved State = iota + 1
	ErrorPage
	Empty
	Parked
	ForSale
	Redirected
	Meaningful
)

// States lists all categories in table order.
func States() []State {
	return []State{NotResolved, ErrorPage, Empty, Parked, ForSale, Redirected, Meaningful}
}

var stateNames = map[State]string{
	NotResolved: "Not resolved",
	ErrorPage:   "Error",
	Empty:       "Empty",
	Parked:      "Parked",
	ForSale:     "For sale",
	Redirected:  "Redirected",
	Meaningful:  "Meaningful content",
}

// String returns the Table V row label.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "Unknown"
}

// Weights maps each category to its probability mass. The two defaults are
// the exact sample proportions of Table V.
type Weights map[State]float64

// IDNWeights returns Table V's IDN column (out of 500 samples).
func IDNWeights() Weights {
	return Weights{
		NotResolved: 228, ErrorPage: 65, Empty: 16, Parked: 56,
		ForSale: 8, Redirected: 28, Meaningful: 99,
	}
}

// NonIDNWeights returns Table V's non-IDN column.
func NonIDNWeights() Weights {
	return Weights{
		NotResolved: 76, ErrorPage: 74, Empty: 43, Parked: 107,
		ForSale: 16, Redirected: 16, Meaningful: 168,
	}
}

// Response is the outcome of probing one domain.
type Response struct {
	// Resolved reports whether the name resolved and the connect
	// succeeded. When false, the remaining fields are zero. All IDNs in
	// zone files have NS records, so failures are name-server-side
	// (REFUSED and the like, §IV-D): the NotResolved hosting state, which
	// Serve renders as the zero Response.
	Resolved bool
	// StatusCode is the HTTP status (0 when !Resolved).
	StatusCode int
	// Location is the redirect target for 3xx responses.
	Location string
	// Body is the homepage body.
	Body string
	// ServerCN is the common name of the certificate served on :443
	// (empty when HTTPS is not deployed). It couples Table V hosting
	// states to the Table VII shared-certificate analysis.
	ServerCN string
}

// Parking and sale services whose markers appear in generated pages —
// the operators behind the paper's Table VII common names.
var parkingServices = []string{"sedoparking.com", "seoboxes.com", "parkingcrew.net", "godaddy-park.com"}

// Serve produces the synthetic response for a domain with hosting profile
// state. variant selects among equivalent phrasings so bodies differ
// across domains; pass any deterministic per-domain value.
func Serve(state State, domain string, variant uint64) Response {
	park := parkingServices[variant%uint64(len(parkingServices))]
	switch state {
	case NotResolved:
		return Response{}
	case ErrorPage:
		codes := []int{500, 502, 503, 404, 403}
		return Response{Resolved: true, StatusCode: codes[variant%uint64(len(codes))],
			Body: "<html><body><h1>Error</h1></body></html>"}
	case Empty:
		bodies := []string{"", "<html></html>", "<html><body></body></html>"}
		return Response{Resolved: true, StatusCode: 200, Body: bodies[variant%3]}
	case Parked:
		return Response{Resolved: true, StatusCode: 200, ServerCN: park,
			Body: fmt.Sprintf("<html><body>The domain %s is parked courtesy of %s. Related searches: loans, insurance.</body></html>", domain, park)}
	case ForSale:
		return Response{Resolved: true, StatusCode: 200,
			Body: fmt.Sprintf("<html><body><h1>%s is for sale!</h1>Buy this premium domain now. Make an offer.</body></html>", domain)}
	case Redirected:
		targets := []string{"https://www.example-shop.com/", "https://portal.example.net/home", "https://m.example.org/"}
		return Response{Resolved: true, StatusCode: 302, Location: targets[variant%3]}
	case Meaningful:
		return Response{Resolved: true, StatusCode: 200,
			Body: fmt.Sprintf("<html><head><title>%s</title></head><body><nav>home products about contact</nav><article>Welcome to %s — news, catalogue and customer service. %d articles published.</article></body></html>",
				domain, domain, 10+variant%90)}
	}
	return Response{}
}

// Classify recovers the usage category from a served response. It sees only
// what a crawler would see; the pipeline's Table V is built from these
// recovered labels. Classify(Serve(s, d, v)) == s for every state.
func Classify(resp Response) State {
	switch {
	case !resp.Resolved:
		return NotResolved
	case resp.StatusCode >= 300 && resp.StatusCode < 400:
		return Redirected
	case resp.StatusCode >= 400:
		return ErrorPage
	}
	body := strings.ToLower(resp.Body)
	text := stripTags(body)
	switch {
	case strings.TrimSpace(text) == "":
		return Empty
	case strings.Contains(body, "is parked"):
		return Parked
	case strings.Contains(body, "for sale") || strings.Contains(body, "make an offer"):
		return ForSale
	default:
		return Meaningful
	}
}

// stripTags removes a conservative approximation of HTML markup, leaving
// visible text.
func stripTags(s string) string {
	var b strings.Builder
	inTag := false
	for _, r := range s {
		switch {
		case r == '<':
			inTag = true
		case r == '>':
			inTag = false
		case !inTag:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Census counts recovered categories over a population — one column of
// Table V.
type Census map[State]int

// Total returns the number of classified domains.
func (c Census) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Rate returns the fraction of the census in the given state.
func (c Census) Rate(s State) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c[s]) / float64(t)
}
