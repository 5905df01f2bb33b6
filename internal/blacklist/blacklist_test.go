package blacklist

import (
	"testing"
)

func TestFeedBasics(t *testing.T) {
	f := NewFeed()
	if f.Contains("a.com") {
		t.Error("empty feed should contain nothing")
	}
	f.Add("xn--0wwy37b.com")
	if !f.Contains("xn--0wwy37b.com") {
		t.Error("Contains failed")
	}
	if !f.Contains("XN--0WWY37B.COM") {
		t.Error("Contains should fold case")
	}
	f.Add("XN--0WWY37B.COM")
	if len(f.domains) != 1 {
		t.Error("case-folded duplicate should not grow the feed")
	}
}

func TestAggregateUnion(t *testing.T) {
	vt := NewFeed()
	q := NewFeed()
	bd := NewFeed()
	vt.Add("a.com")
	vt.Add("b.com")
	q.Add("b.com")
	q.Add("c.com")
	bd.Add("d.com")
	agg := NewAggregate(vt, q, bd)

	for _, d := range []string{"a.com", "b.com", "c.com", "d.com"} {
		if !agg.IsMalicious(d) {
			t.Errorf("IsMalicious(%s) = false", d)
		}
	}
	if agg.IsMalicious("clean.com") {
		t.Error("clean domain flagged")
	}
}

func BenchmarkIsMalicious(b *testing.B) {
	vt := NewFeed()
	for i := 0; i < 5000; i++ {
		vt.Add("domain" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + ".com")
	}
	agg := NewAggregate(vt, NewFeed(), NewFeed())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = agg.IsMalicious("domainzz.com")
	}
}
