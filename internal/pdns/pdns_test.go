package pdns

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func day(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func TestEntryActiveDays(t *testing.T) {
	e := Entry{Domain: "a.com", FirstSeen: day(2017, 1, 1), LastSeen: day(2017, 4, 29)}
	if got := e.ActiveDays(); got != 118 {
		t.Errorf("ActiveDays = %v, want 118", got)
	}
	if (Entry{Domain: "b.com"}).ActiveDays() != 0 {
		t.Error("zero times should be 0 active days")
	}
}

func TestMergeWidensAndSums(t *testing.T) {
	s := NewStore()
	s.Merge(Entry{Domain: "X.com", FirstSeen: day(2016, 5, 1), LastSeen: day(2016, 6, 1), Queries: 10, IPs: []string{"192.0.2.1"}})
	s.Merge(Entry{Domain: "x.COM", FirstSeen: day(2016, 1, 1), LastSeen: day(2016, 5, 15), Queries: 7, IPs: []string{"192.0.2.2", "192.0.2.1"}})
	e, ok := s.Get("x.com")
	if !ok {
		t.Fatal("merged entry missing")
	}
	if !e.FirstSeen.Equal(day(2016, 1, 1)) || !e.LastSeen.Equal(day(2016, 6, 1)) {
		t.Errorf("window = %v..%v", e.FirstSeen, e.LastSeen)
	}
	if e.Queries != 17 {
		t.Errorf("Queries = %d", e.Queries)
	}
	if !reflect.DeepEqual(e.IPs, []string{"192.0.2.1", "192.0.2.2"}) {
		t.Errorf("IPs = %v", e.IPs)
	}
}

func TestMergeCommutative(t *testing.T) {
	entries := []Entry{
		{Domain: "a.com", FirstSeen: day(2015, 1, 1), LastSeen: day(2015, 3, 1), Queries: 3, IPs: []string{"10.0.0.1"}},
		{Domain: "a.com", FirstSeen: day(2014, 6, 1), LastSeen: day(2016, 1, 1), Queries: 9, IPs: []string{"10.0.0.2"}},
		{Domain: "a.com", FirstSeen: day(2015, 2, 1), LastSeen: day(2015, 2, 2), Queries: 1, IPs: []string{"10.0.0.1"}},
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	var want Entry
	for i, p := range perms {
		s := NewStore()
		for _, idx := range p {
			s.Merge(entries[idx])
		}
		got, _ := s.Get("a.com")
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge order %v gave %+v, want %+v", p, got, want)
		}
	}
}

func TestMergeQuickInvariants(t *testing.T) {
	f := func(q1, q2 uint16, d1, d2 uint8) bool {
		s := NewStore()
		s.Merge(Entry{Domain: "q.com", FirstSeen: day(2015, 1, 1+int(d1%20)), LastSeen: day(2016, 1, 1+int(d1%20)), Queries: int64(q1)})
		s.Merge(Entry{Domain: "q.com", FirstSeen: day(2015, 1, 1+int(d2%20)), LastSeen: day(2016, 1, 1+int(d2%20)), Queries: int64(q2)})
		e, ok := s.Get("q.com")
		return ok && e.Queries == int64(q1)+int64(q2) && !e.LastSeen.Before(e.FirstSeen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActiveAndQuerySeries(t *testing.T) {
	s := NewStore()
	s.Merge(Entry{Domain: "a.com", FirstSeen: day(2017, 1, 1), LastSeen: day(2017, 1, 11), Queries: 100})
	s.Merge(Entry{Domain: "b.com", FirstSeen: day(2017, 1, 1), LastSeen: day(2017, 1, 2), Queries: 5})
	domains := []string{"a.com", "b.com", "unseen.com"}
	ad := s.ActiveDaysOf(domains)
	if !reflect.DeepEqual(ad, []float64{10, 1}) {
		t.Errorf("ActiveDaysOf = %v", ad)
	}
	qs := s.QueriesOf(domains)
	if !reflect.DeepEqual(qs, []float64{100, 5}) {
		t.Errorf("QueriesOf = %v", qs)
	}
}

func TestSlash24(t *testing.T) {
	cases := []struct{ in, want string }{
		{"192.0.2.55", "192.0.2.0/24"},
		{"10.1.2.3", "10.1.2.0/24"},
		{"garbage", "garbage"},
	}
	for _, tc := range cases {
		if got := Slash24(tc.in); got != tc.want {
			t.Errorf("Slash24(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	s := NewStore()
	e := Entry{Domain: "bench.com", FirstSeen: day(2016, 1, 1), LastSeen: day(2017, 1, 1), Queries: 1, IPs: []string{"192.0.2.9"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Merge(e)
	}
}
