package zonegen

import (
	"reflect"
	"strconv"
	"testing"

	"idnlab/internal/langid"
	"idnlab/internal/simrand"
)

// uniqueNaive is the linear probe unique replaced, kept as the reference:
// every collision scans label2, label3, … from 2.
func uniqueNaive(seen map[string]struct{}, label string) string {
	if _, dup := seen[label]; !dup {
		seen[label] = struct{}{}
		return label
	}
	for i := 2; ; i++ {
		cand := label + strconv.Itoa(i)
		if _, dup := seen[cand]; !dup {
			seen[cand] = struct{}{}
			return cand
		}
	}
}

// TestUniqueMatchesLinearProbe drives unique and the probe it replaced
// with the same draws: equal strings at every step, equal censuses at the
// end.
func TestUniqueMatchesLinearProbe(t *testing.T) {
	g := newNameGen(simrand.New(1), 0)
	naive := make(map[string]struct{})
	// Names a DeltaStream seeds straight into the census, bypassing unique:
	// a bare base, suffixed forms ahead of any hint, and a gap at shop4.
	for _, l := range []string{"shopweb", "shop2", "shop3", "shop5", "news10", "news11"} {
		g.seen[l] = struct{}{}
		naive[l] = struct{}{}
	}
	step := 0
	draw := func(label string) {
		t.Helper()
		step++
		got, want := g.unique(label), uniqueNaive(naive, label)
		if got != want {
			t.Fatalf("draw %d: unique(%q) = %q, the linear probe gives %q", step, label, got, want)
		}
	}

	// Adversarial, in an order that matters: a base ending in digits drawn
	// after another base was suffixed onto it, a base equal to another
	// base's suffixed form, seeded names met mid-probe, interleaved bases.
	for _, l := range []string{
		"shop", "shop", // seeded shop2, shop3 are skipped: shop4
		"shop2", "shop2", // taken by the seed: shop22, shop23
		"shop", "shop", // shop5 is seeded: shop6, shop7
		"shop22", "shop22", "shop2", // shop222 then shop24 (shop22, shop23 taken)
		"news1", "news1", "news1", // news1, news12, news13
		"news", "news", "news", // news, news2, news3
		"news1", "news", "news12", "news1", // interleaved: news14, news4, news122, news15
		"a", "a1", "a", "a1", "a12", "a", "a1", "a2", "a22", "a", "a2",
		"shopweb", "shopweb", "web", "web", "web2", "web",
	} {
		draw(l)
	}

	// Seeded draws from the generator's own ASCII space: the 144
	// two-syllable bases, 30 % of them with a numeric tail that lands on
	// other bases' suffixed forms. 50k draws, not more: the reference is
	// quadratic (5M census lookups here, 82M for 200k draws).
	src := simrand.New(2018)
	en := latinSyllables[langid.English]
	if len(en)*len(en) != 144 {
		t.Fatalf("ASCII base space is %d, the test was written for 144", len(en)*len(en))
	}
	for i := 0; i < 50_000; i++ {
		cand := en[src.Intn(len(en))] + en[src.Intn(len(en))]
		if src.Bool(0.3) {
			cand += strconv.Itoa(src.Intn(100))
		}
		draw(cand)
	}
	if !reflect.DeepEqual(g.seen, naive) {
		t.Fatalf("censuses differ: %d names vs the linear probe's %d", len(g.seen), len(naive))
	}
}

// TestGenerateLookupsLinear is the linearity gate the wall clock cannot
// give on a noisy box: the generator makes a bounded number of census
// lookups per materialized label at any corpus size. The linear probe
// made ~4 per label at scale 100 and hundreds at scale 25, where the
// 144-base ASCII space is drawn 96k times.
func TestGenerateLookupsLinear(t *testing.T) {
	for _, scale := range []int{100, 25} {
		g := newGenerator(Config{Seed: 2018, Scale: scale})
		g.run()
		labels := len(g.reg.Domains)
		if per := float64(g.names.lookups) / float64(labels); per > 3 {
			t.Errorf("scale %d: %d census lookups for %d labels (%.1f per label), want <= 3",
				scale, g.names.lookups, labels, per)
		} else {
			t.Logf("scale %d: %.2f census lookups per label", scale, per)
		}
	}
}
