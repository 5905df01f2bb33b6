// Package brands provides the ranked brand-domain list the detectors
// target — the stand-in for the paper's "Alexa Top 1K SLDs".
//
// The real Alexa ranking is a retired proprietary feed. The substitute
// pins every brand the paper names to its stated Alexa rank (google #1,
// youtube #2, facebook #3, qq #9, amazon #11, twitter #13, apple #55,
// soso #96, china #166, 1688 #191, bet365 #332, icloud #372, go #391,
// sex #537, as #634, ea #742, 58 #861, …) and fills the remaining ranks
// with deterministic synthetic SLDs, so detector outputs (Tables XIII/XIV,
// Figures 6/7) rank the same heads the paper reports.
package brands

import (
	"fmt"
	"strings"
	"sync"
)

// Brand is one entry of the ranked list.
type Brand struct {
	// Domain is the brand SLD, e.g. "google.com".
	Domain string
	// Rank is the 1-based popularity rank.
	Rank int
}

// Label returns the second-level label without the TLD.
func (b Brand) Label() string {
	if i := strings.IndexByte(b.Domain, '.'); i >= 0 {
		return b.Domain[:i]
	}
	return b.Domain
}

// pinned holds the brands the paper names, at their stated Alexa ranks,
// plus a few well-known heads to make the top of the list realistic.
var pinned = map[int]string{
	1:   "google.com",
	2:   "youtube.com",
	3:   "facebook.com",
	4:   "baidu.com",
	5:   "wikipedia.org",
	6:   "yahoo.com",
	7:   "reddit.com",
	9:   "qq.com",
	11:  "amazon.com",
	12:  "taobao.com",
	13:  "twitter.com",
	15:  "instagram.com",
	18:  "weibo.com",
	21:  "ebay.com",
	25:  "netflix.com",
	29:  "linkedin.com",
	34:  "microsoft.com",
	42:  "github.com",
	55:  "apple.com",
	68:  "alipay.com",
	77:  "paypal.com",
	96:  "soso.com",
	130: "dropbox.com",
	166: "china.com",
	191: "1688.com",
	240: "spotify.com",
	332: "bet365.com",
	372: "icloud.com",
	391: "go.com",
	470: "gree.com",
	537: "sex.com",
	634: "as.com",
	742: "ea.com",
	861: "58.com",
}

// Word pools for synthetic filler brands: two-part compounds give
// plausible, mutually distinct ASCII SLDs.
var (
	fillHeads = []string{
		"news", "shop", "cloud", "data", "game", "play", "star", "blue",
		"fast", "easy", "smart", "home", "tech", "web", "net", "top",
		"mega", "ultra", "prime", "alpha", "delta", "nova", "terra", "vista",
		"metro", "urban", "pixel", "cyber", "hyper", "quantum", "zen", "apex",
	}
	fillTails = []string{
		"hub", "zone", "base", "port", "link", "cast", "mart", "desk",
		"pad", "kit", "lab", "box", "dex", "ware", "gate", "works",
		"nest", "forge", "grid", "flow", "line", "spot", "view", "scape",
		"vault", "field", "craft", "wave", "track", "point", "sense", "loop",
	}
	fillTLDs = []string{"com", "com", "com", "net", "org"} // com-heavy like Alexa
)

var (
	listOnce sync.Once
	list     []Brand
	byDomain map[string]Brand
)

func build() {
	seen := make(map[string]bool, 1100)
	byDomain = make(map[string]Brand, 1100)
	list = make([]Brand, 0, 1000)
	for _, d := range pinned {
		seen[d] = true
	}
	next := 0
	for rank := 1; rank <= 1000; rank++ {
		domain, ok := pinned[rank]
		for !ok {
			h := fillHeads[next%len(fillHeads)]
			t := fillTails[(next/len(fillHeads))%len(fillTails)]
			tld := fillTLDs[next%len(fillTLDs)]
			cand := h + t + "." + tld
			next++
			if !seen[cand] {
				domain, ok = cand, true
				seen[cand] = true
			}
			if next > 100000 {
				panic("brands: filler pool exhausted")
			}
		}
		b := Brand{Domain: domain, Rank: rank}
		list = append(list, b)
		byDomain[domain] = b
	}
}

// List returns the full top-1000 brand list in rank order. The returned
// slice is shared; callers must not modify it.
func List() []Brand {
	listOnce.Do(build)
	return list
}

// TopK returns the first k brands by rank (k clamped to [0, 1000]).
func TopK(k int) []Brand {
	l := List()
	if k < 0 {
		k = 0
	}
	if k > len(l) {
		k = len(l)
	}
	return l[:k]
}

// Lookup returns the brand entry for a domain, if it is in the list.
func Lookup(domain string) (Brand, bool) {
	List()
	b, ok := byDomain[strings.ToLower(domain)]
	return b, ok
}

// String implements fmt.Stringer.
func (b Brand) String() string {
	return fmt.Sprintf("#%d %s", b.Rank, b.Domain)
}
