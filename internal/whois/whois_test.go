package whois

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		Domain:          "xn--0wwy37b.com",
		Registrar:       "GMO Internet Inc.",
		RegistrantEmail: "daidesheng88@gmail.com",
		Created:         time.Date(2015, 3, 2, 10, 30, 0, 0, time.UTC),
		Expires:         time.Date(2018, 3, 2, 10, 30, 0, 0, time.UTC),
		NameServers:     []string{"ns1.parking.com", "ns2.parking.com"},
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	rec := sampleRecord()
	back, err := Parse(strings.NewReader(Render(rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, rec)
	}
}

func TestPrivacyRoundTrip(t *testing.T) {
	rec := Record{
		Domain:    "example.com",
		Registrar: "Name.com, Inc.",
		Privacy:   true,
		Created:   time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	back, err := Parse(strings.NewReader(Render(rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Privacy {
		t.Error("privacy flag lost")
	}
	if back.RegistrantEmail != "" {
		t.Error("privacy record must not expose email")
	}
}

func TestParseIgnoresUnknownFieldsAndComments(t *testing.T) {
	text := `% legal disclaimer
Domain Name: EXAMPLE.NET
Registrar: Dynadot, LLC.
DNSSEC: unsigned
Some Unknown Field: whatever
>>> Last update of whois database <<<
`
	rec, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "example.net" || rec.Registrar != "Dynadot, LLC." {
		t.Errorf("parsed %+v", rec)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("Registrar: X\n")); !errors.Is(err, ErrMissingDomain) {
		t.Errorf("err = %v, want ErrMissingDomain", err)
	}
	if _, err := Parse(strings.NewReader("Domain Name: A.COM\nCreation Date: not-a-date\n")); !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(label uint32, regIdx, emailIdx uint8, privacy bool, yearOff uint16, nsCount uint8) bool {
		registrars := []string{"GMO Internet Inc.", "GoDaddy.com, LLC.", "", "Gabia, Inc."}
		emails := []string{"a@qq.com", "owner@163.com", "", "x@gmail.com"}
		rec := Record{
			Domain:          "xn--test" + strings.Repeat("a", int(label%5)) + ".com",
			Registrar:       registrars[int(regIdx)%len(registrars)],
			RegistrantEmail: emails[int(emailIdx)%len(emails)],
			Privacy:         privacy,
			Created:         time.Date(2000+int(yearOff%18), 5, 10, 0, 0, 0, 0, time.UTC),
		}
		for i := 0; i < int(nsCount%4); i++ {
			rec.NameServers = append(rec.NameServers, "ns"+string(rune('1'+i))+".host.net")
		}
		if rec.Privacy {
			rec.RegistrantEmail = "" // codec cannot carry both
		}
		back, err := Parse(strings.NewReader(Render(rec)))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(rec, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s.Put(sampleRecord())
	if s.Len() != 1 {
		t.Fatal("Put failed")
	}
	if _, ok := s.Get("XN--0WWY37B.COM"); !ok {
		t.Error("Get should be case-insensitive")
	}
	if _, ok := s.Get("missing.com"); ok {
		t.Error("unexpected hit")
	}
	s.Put(sampleRecord()) // idempotent replace
	if s.Len() != 1 {
		t.Error("duplicate Put should replace")
	}
}

func buildTestStore() *Store {
	s := NewStore()
	add := func(domain, registrar, email string, year int) {
		s.Put(Record{
			Domain:          domain,
			Registrar:       registrar,
			RegistrantEmail: email,
			Created:         time.Date(year, 6, 1, 0, 0, 0, 0, time.UTC),
		})
	}
	for i := 0; i < 5; i++ {
		add("gmo"+string(rune('a'+i))+".com", "GMO Internet Inc.", "776053229@qq.com", 2015)
	}
	for i := 0; i < 3; i++ {
		add("hichina"+string(rune('a'+i))+".com", "HiChina Zhicheng Technology Limited.", "daidesheng88@gmail.com", 2017)
	}
	add("solo.com", "Name.com, Inc.", "", 2000)
	s.Put(Record{Domain: "priv.com", Registrar: "Name.com, Inc.", Privacy: true,
		Created: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)})
	return s
}

func TestTopRegistrars(t *testing.T) {
	s := buildTestStore()
	top := s.TopRegistrars(2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Key != "GMO Internet Inc." || top[0].Count != 5 {
		t.Errorf("top registrar = %+v", top[0])
	}
	if top[1].Key != "HiChina Zhicheng Technology Limited." || top[1].Count != 3 {
		t.Errorf("second registrar = %+v", top[1])
	}
}

func TestTopRegistrantEmailsSkipsPrivacyAndEmpty(t *testing.T) {
	s := buildTestStore()
	top := s.TopRegistrantEmails(-1)
	if len(top) != 2 {
		t.Fatalf("emails = %+v", top)
	}
	if top[0].Key != "776053229@qq.com" || top[0].Count != 5 {
		t.Errorf("top email = %+v", top[0])
	}
}

func TestRegistrarCount(t *testing.T) {
	if got := buildTestStore().RegistrarCount(); got != 3 {
		t.Errorf("RegistrarCount = %d, want 3", got)
	}
}

func BenchmarkRender(b *testing.B) {
	rec := sampleRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Render(rec)
	}
}

func BenchmarkParse(b *testing.B) {
	text := Render(sampleRecord())
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
