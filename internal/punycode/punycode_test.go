package punycode

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// rfc3492Samples are the official sample strings from RFC 3492 §7.1 plus
// IDN labels that appear in the paper.
var rfc3492Samples = []struct {
	name    string
	unicode string
	encoded string
}{
	{
		name: "rfc-arabic-egyptian",
		unicode: "ليهمابتكل" +
			"موشعربي؟",
		encoded: "egbpdaj6bu4bxfgehfvwxn",
	},
	{
		name:    "rfc-chinese-simplified",
		unicode: "他们为什么不说中文",
		encoded: "ihqwcrb4cv8a8dqg056pqjye",
	},
	{
		name:    "rfc-chinese-traditional",
		unicode: "他們爲什麽不說中文",
		encoded: "ihqwctvzc91f659drss3x8bo0yb",
	},
	{
		name: "rfc-czech",
		unicode: "Pročprost" +
			"ěnemluvíče" +
			"sky",
		encoded: "Proprostnemluvesky-uyb24dma41a",
	},
	{
		name: "rfc-hebrew",
		unicode: "למההםפשוט" +
			"לאמדבריםעב" +
			"רית",
		encoded: "4dbcagdahymbxekheh6e0a7fei0b",
	},
	{
		name: "rfc-hindi",
		unicode: "यहलोगहिन्" +
			"दीक्योंनही" +
			"ंबोलसकतेहै" +
			"ं",
		encoded: "i1baa7eci9glrd9b2ae1bj0hfcgg6iyaf8o0a1dig0cd",
	},
	{
		name: "rfc-japanese",
		unicode: "なぜみんな日本語を" +
			"話してくれないのか",
		encoded: "n8jok5ay5dzabd5bym9f0cm5685rrjetr6pdxa",
	},
	{
		name: "rfc-korean",
		unicode: "세계의모든사람들이" +
			"한국어를이해한다면얼" +
			"마나좋을까",
		encoded: "989aomsvi5e83db1d2a355cv1e0vak1dwrv93d5xbh15a0dt30a5jpsd879ccm6fea98c",
	},
	{
		name: "rfc-russian",
		unicode: "почемужео" +
			"нинеговоря" +
			"тпорусски",
		encoded: "b1abfaaepdrnnbgefbadotcwatmq2g4l",
	},
	{
		name: "rfc-spanish",
		unicode: "Porquénop" +
			"uedensimpl" +
			"ementehabl" +
			"arenEspaño" +
			"l",
		encoded: "PorqunopuedensimplementehablarenEspaol-fmd56a",
	},
	{
		name: "rfc-vietnamese",
		unicode: "Tạisaohọk" +
			"hôngthểchỉ" +
			"nóitiếngVi" +
			"ệt",
		encoded: "TisaohkhngthchnitingVit-kjcr8268qyxafd2f1b9g",
	},
	{
		name:    "rfc-3nen-b-gumi",
		unicode: "3年B組金八先生",
		encoded: "3B-ww4c5e180e575a65lsy2b",
	},
	{
		name:    "rfc-amuro-namie",
		unicode: "安室奈美恵-with-SUPER-MONKEYS",
		encoded: "-with-SUPER-MONKEYS-pc58ag80a8qai00g7n9n",
	},
	{
		name:    "rfc-hello-another-way",
		unicode: "Hello-Another-Way-それぞれの場所",
		encoded: "Hello-Another-Way--fc4qua05auwb3674vfr0b",
	},
	{
		name:    "rfc-hitotsu-yane",
		unicode: "ひとつ屋根の下2",
		encoded: "2-u9tlzr9756bt3uc0v",
	},
	{
		name:    "rfc-maji-de-koi",
		unicode: "MajiでKoiする5秒前",
		encoded: "MajiKoi5-783gue6qz075azm5e",
	},
	{
		name:    "rfc-pafii-de-runba",
		unicode: "パフィーdeルンバ",
		encoded: "de-jg4avhby1noc0d",
	},
	{
		name:    "rfc-sono-speed-de",
		unicode: "そのスピードで",
		encoded: "d9juau41awczczp",
	},
	{
		name:    "rfc-costs",
		unicode: "-> $1.00 <-",
		encoded: "-> $1.00 <--",
	},
	// Labels from the paper.
	{
		name:    "paper-gambling-idn",
		unicode: "波色", // the gambling IDN xn--0wwy37b from paper §IV-C
		encoded: "0wwy37b",
	},
	{
		name:    "paper-china-itld",
		unicode: "中国", // 中国 (xn--fiqs8s)
		encoded: "fiqs8s",
	},
	{
		name:    "paper-apple-homograph",
		unicode: "аpple", // Cyrillic а + pple
		encoded: "pple-43d",
	},
}

func TestEncodeRFC3492Samples(t *testing.T) {
	for _, tc := range rfc3492Samples {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Encode(tc.unicode)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if got != tc.encoded {
				t.Errorf("Encode(%q) = %q, want %q", tc.unicode, got, tc.encoded)
			}
		})
	}
}

func TestDecodeRFC3492Samples(t *testing.T) {
	for _, tc := range rfc3492Samples {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(tc.encoded)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got != tc.unicode {
				t.Errorf("Decode(%q) = %q, want %q", tc.encoded, got, tc.unicode)
			}
		})
	}
}

func TestDecodeCaseInsensitiveDigits(t *testing.T) {
	lower, err := Decode("fiqs8s")
	if err != nil {
		t.Fatal(err)
	}
	upper, err := Decode("FIQS8S")
	if err != nil {
		t.Fatal(err)
	}
	if lower != upper {
		t.Errorf("case-insensitive decode mismatch: %q vs %q", lower, upper)
	}
}

func TestEncodeEmptyLabel(t *testing.T) {
	got, err := Encode("")
	if err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Errorf("Encode(\"\") = %q", got)
	}
}

func TestDecodeEmpty(t *testing.T) {
	got, err := Decode("")
	if err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Errorf("Decode(\"\") = %q", got)
	}
}

func TestEncodeOutputIsASCII(t *testing.T) {
	for _, tc := range rfc3492Samples {
		got, err := Encode(tc.unicode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(got); i++ {
			if got[i] >= 0x80 {
				t.Fatalf("Encode(%q) produced non-ASCII byte", tc.unicode)
			}
		}
	}
}

func TestEncodeInvalidUTF8(t *testing.T) {
	if _, err := Encode("abc\xff"); !errors.Is(err, ErrInvalidRune) {
		t.Errorf("err = %v, want ErrInvalidRune", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"non-ascii-input", "abc\x80def"},
		{"invalid-digit", "ab-!!"},
		{"truncated", "a-b"},
		{"surrogate-range", "ab-9999999999"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.input); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestDecodeSingleDigitIsFirstNonBasic(t *testing.T) {
	// n starts at U+0080, so the smallest decodable insertion is U+0080
	// itself; a decoded basic code point is impossible by construction.
	got, err := Decode("a")
	if err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Errorf("Decode(\"a\") = %q, want U+0080", got)
	}
}

// randomLabel builds a label mixing ASCII and non-ASCII code points from
// scripts the paper's corpus covers.
func randomLabel(r *rand.Rand) string {
	pools := [][]rune{
		[]rune("abcdefghijklmnopqrstuvwxyz0123456789-"),
		[]rune("господинпочта"),                    // Cyrillic
		[]rune("中国互联网络信息中心微博客"),                    // Han
		[]rune("ひらがなカタカナ"),                         // Japanese kana
		[]rune("한국어도메인"),                           // Hangul
		[]rune("ไทยโดเมน"),                         // Thai
		[]rune("àáâãäåçèéêëìíîïñòóôõöùúûüýÿāęłőž"), // Latin w/ diacritics
	}
	n := 1 + r.Intn(24)
	out := make([]rune, 0, n)
	for i := 0; i < n; i++ {
		pool := pools[r.Intn(len(pools))]
		out = append(out, pool[r.Intn(len(pool))])
	}
	return string(out)
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20180625))
	for i := 0; i < 3000; i++ {
		label := randomLabel(r)
		enc, err := Encode(label)
		if err != nil {
			t.Fatalf("Encode(%q): %v", label, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q) from %q: %v", enc, label, err)
		}
		if dec != label {
			t.Fatalf("round trip failed: %q -> %q -> %q", label, enc, dec)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build a valid label from arbitrary 16-bit values, skipping
		// surrogates and control chars.
		runes := make([]rune, 0, len(raw))
		for _, v := range raw {
			r := rune(v)
			if r < 0x20 || (r >= 0xD800 && r <= 0xDFFF) {
				continue
			}
			runes = append(runes, r)
		}
		label := string(runes)
		if !utf8.ValidString(label) {
			return true
		}
		enc, err := Encode(label)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		return err == nil && dec == label
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePureASCIIAddsDelimiter(t *testing.T) {
	// Per raw Bootstring, a pure-ASCII label encodes to itself plus the
	// trailing delimiter (see the RFC "costs" sample). idna layers the
	// "only encode when non-ASCII present" rule on top.
	got, err := Encode("abc")
	if err != nil {
		t.Fatal(err)
	}
	if got != "abc-" {
		t.Errorf("Encode(\"abc\") = %q, want \"abc-\"", got)
	}
}

func TestDecodeOverflow(t *testing.T) {
	// A long run of 'z' digits multiplies the weight beyond range.
	if _, err := Decode("a-" + strings.Repeat("z", 64)); !errors.Is(err, ErrOverflow) && err == nil {
		t.Error("expected overflow or bad-input error")
	}
}

func BenchmarkEncodeShortCJK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Encode("中国"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeLongMixed(b *testing.B) {
	label := "Hello-Another-Way-それぞれの場所"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(label); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLongMixed(b *testing.B) {
	enc := "Hello-Another-Way--fc4qua05auwb3674vfr0b"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// varint encodes q as RFC 3492's generalized variable-length integer
// at the given bias, as the encoder writes each delta.
func varint(q, bias int) string {
	var out []byte
	for k := base; ; k += base {
		t := min(max(k-bias, tmin), tmax)
		if q < t {
			return string(append(out, encodeDigit(q)))
		}
		out = append(out, encodeDigit(t+(q-t)%(base-t)))
		q = (q - t) / (base - t)
	}
}

// TestOverflowChecksWithoutDivision holds AppendDecode's overflow
// checks, products in int64 where RFC 3492's pseudocode divides, to the
// exact 32-bit bound. A first delta of maxInt after 63 basic code
// points decodes past the digit check and fails as a code point out of
// range; one of maxInt+1 is an overflow. The quotient form and the
// product form of both checks agree over the domain the decoder reaches
// (0 <= i <= maxInt, 1 <= w <= maxInt, 0 <= d < base, tmin <= t <= tmax).
func TestOverflowChecksWithoutDivision(t *testing.T) {
	basic := strings.Repeat("a", 63) + "-"
	if _, err := Decode(basic + varint(maxInt, initialBias)); !errors.Is(err, ErrBadInput) {
		t.Errorf("a first delta of maxInt: err %v, want ErrBadInput (out of range)", err)
	}
	if _, err := Decode(basic + varint(maxInt+1, initialBias)); !errors.Is(err, ErrOverflow) {
		t.Errorf("a first delta of maxInt+1: err %v, want ErrOverflow", err)
	}

	edges := []int{0, 1, 2, 35, 36, 1 << 16, maxInt / 36, maxInt / 35, maxInt/35 + 1, maxInt / 2, maxInt - 1, maxInt}
	check := func(i, w, d, tt int) bool {
		digit := (d > (maxInt-i)/w) == (int64(i)+int64(d)*int64(w) > maxInt)
		weight := (w > maxInt/(base-tt)) == (int64(w)*int64(base-tt) > maxInt)
		return digit && weight
	}
	for _, i := range edges {
		for _, w := range edges[1:] {
			for d := 0; d < base; d++ {
				for tt := tmin; tt <= tmax; tt++ {
					if !check(i, w, d, tt) {
						t.Fatalf("i=%d w=%d d=%d t=%d: the checks disagree", i, w, d, tt)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3492))
	for n := 0; n < 200000; n++ {
		i, w := rng.Intn(maxInt+1), 1+rng.Intn(maxInt)
		if n%2 == 0 { // small weights, where the digit check is tight
			w = 1 + rng.Intn(1<<12)
			i = maxInt - rng.Intn(36*w)
		}
		if d, tt := rng.Intn(base), tmin+rng.Intn(tmax-tmin+1); !check(i, w, d, tt) {
			t.Fatalf("i=%d w=%d d=%d t=%d: the checks disagree", i, w, d, tt)
		}
	}
}
