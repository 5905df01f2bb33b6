// Package uniscript classifies Unicode code points into scripts and
// provides the script-mixing analysis used by the IDN display policies
// (package browser), the language identifier (package langid) and the
// homograph detector (package core).
//
// The classification is a self-contained range table covering every script
// that occurs in the paper's corpus: the east-Asian scripts that dominate
// IDN registration (Han, Hiragana, Katakana, Hangul, Thai), the scripts used
// in homograph attacks (Latin, Cyrillic, Greek), and the remaining top-15
// languages of Table II (Arabic, Hebrew, Devanagari for completeness).
// Code points shared across scripts (digits, hyphen, combining marks,
// punctuation) are classified as Common or Inherited per Unicode TR24.
package uniscript

import "sort"

// Script identifies a Unicode script.
type Script int

// Scripts recognized by this package. Unknown covers everything not in the
// range table.
const (
	Unknown   Script = iota
	Common           // shared: digits, hyphen, dots, spacing punctuation
	Inherited        // combining marks that inherit the base script
	Latin
	Cyrillic
	Greek
	Armenian
	Hebrew
	Arabic
	Devanagari
	Thai
	Han
	Hiragana
	Katakana
	Hangul
	Bopomofo
	Mongolian
	Cherokee
	Georgian
)

var scriptNames = map[Script]string{
	Unknown:    "Unknown",
	Common:     "Common",
	Inherited:  "Inherited",
	Latin:      "Latin",
	Cyrillic:   "Cyrillic",
	Greek:      "Greek",
	Armenian:   "Armenian",
	Hebrew:     "Hebrew",
	Arabic:     "Arabic",
	Devanagari: "Devanagari",
	Thai:       "Thai",
	Han:        "Han",
	Hiragana:   "Hiragana",
	Katakana:   "Katakana",
	Hangul:     "Hangul",
	Bopomofo:   "Bopomofo",
	Mongolian:  "Mongolian",
	Cherokee:   "Cherokee",
	Georgian:   "Georgian",
}

// String returns the Unicode script name.
func (s Script) String() string {
	if n, ok := scriptNames[s]; ok {
		return n
	}
	return "Unknown"
}

// scriptRange is a half-open-inclusive code point range [Lo, Hi] belonging
// to one script.
type scriptRange struct {
	lo, hi rune
	script Script
}

// ranges is sorted by lo (enforced by sortRanges) and non-overlapping;
// Of reads its BMP part from bmpScripts and binary-searches the rest.
// The table is a curated subset of Unicode 10 Scripts.txt (the Unicode
// version contemporary with the paper's 2017 snapshots) covering the
// Basic Multilingual Plane ranges relevant to domain names, plus the
// CJK supplementary ideographs.
var ranges = sortRanges([]scriptRange{
	{0x0030, 0x0039, Common}, // digits
	{0x002D, 0x002E, Common}, // hyphen, full stop
	{0x0041, 0x005A, Latin},
	{0x005F, 0x005F, Common}, // low line (seen in hostnames)
	{0x0061, 0x007A, Latin},
	{0x00AA, 0x00AA, Latin},
	{0x00B5, 0x00B5, Greek}, // micro sign folds to mu
	{0x00BA, 0x00BA, Latin},
	{0x00C0, 0x00D6, Latin},
	{0x00D8, 0x00F6, Latin},
	{0x00F8, 0x02AF, Latin}, // Latin-1 Supp through IPA extensions
	{0x02B0, 0x02FF, Common},
	{0x0300, 0x036F, Inherited}, // combining diacritical marks
	{0x0370, 0x0373, Greek},
	{0x0375, 0x0377, Greek},
	{0x037A, 0x037D, Greek},
	{0x037F, 0x037F, Greek},
	{0x0384, 0x0384, Greek},
	{0x0386, 0x0386, Greek},
	{0x0388, 0x03E1, Greek},
	{0x03F0, 0x03FF, Greek},
	{0x0400, 0x0484, Cyrillic},
	{0x0487, 0x052F, Cyrillic},
	{0x0531, 0x058F, Armenian},
	{0x0591, 0x05F4, Hebrew},
	{0x0600, 0x06FF, Arabic},
	{0x0750, 0x077F, Arabic}, // Arabic Supplement
	{0x08A0, 0x08FF, Arabic}, // Arabic Extended-A
	{0x0900, 0x097F, Devanagari},
	{0x0E01, 0x0E3A, Thai},
	{0x0E40, 0x0E5B, Thai},
	{0x10A0, 0x10FF, Georgian},
	{0x13A0, 0x13FD, Cherokee},
	{0x1100, 0x11FF, Hangul}, // Hangul Jamo
	{0x1780, 0x17FF, Unknown},
	{0x1800, 0x18AF, Mongolian},
	{0x1C80, 0x1C88, Cyrillic}, // Cyrillic Extended-C
	{0x1D00, 0x1D25, Latin},
	{0x1D2C, 0x1D5C, Latin},
	{0x1E00, 0x1EFF, Latin}, // Latin Extended Additional (Vietnamese)
	{0x1F00, 0x1FFE, Greek}, // Greek Extended
	{0x2C60, 0x2C7F, Latin}, // Latin Extended-C
	{0x2D00, 0x2D2F, Georgian},
	{0x2DE0, 0x2DFF, Cyrillic},
	{0x2E80, 0x2FDF, Han}, // CJK radicals, Kangxi radicals
	{0x3005, 0x3007, Han},
	{0x3041, 0x3096, Hiragana},
	{0x3099, 0x309A, Inherited}, // kana voicing marks
	{0x309D, 0x309F, Hiragana},
	{0x30A1, 0x30FA, Katakana},
	{0x30FD, 0x30FF, Katakana},
	{0x3105, 0x312F, Bopomofo},
	{0x3131, 0x318E, Hangul}, // Hangul compatibility Jamo
	{0x31A0, 0x31BF, Bopomofo},
	{0x31F0, 0x31FF, Katakana},
	{0x3400, 0x4DBF, Han}, // CJK Extension A
	{0x4E00, 0x9FFF, Han}, // CJK Unified Ideographs
	{0xA640, 0xA69F, Cyrillic},
	{0xA720, 0xA7FF, Latin}, // Latin Extended-D
	{0xAB30, 0xAB64, Latin},
	{0xAB65, 0xAB65, Greek}, // small capital omega in Latin Ext-E block
	{0xAB70, 0xABBF, Cherokee},
	{0xAC00, 0xD7A3, Hangul}, // Hangul syllables
	{0xF900, 0xFAD9, Han},    // CJK compatibility ideographs
	{0xFB1D, 0xFB4F, Hebrew},
	{0xFB50, 0xFDFF, Arabic}, // Arabic presentation forms A
	{0xFE70, 0xFEFC, Arabic}, // Arabic presentation forms B
	{0xFF10, 0xFF19, Common}, // fullwidth digits
	{0xFF21, 0xFF3A, Latin},  // fullwidth Latin capitals
	{0xFF41, 0xFF5A, Latin},  // fullwidth Latin smalls
	{0xFF66, 0xFF9D, Katakana},
	{0xFFA0, 0xFFDC, Hangul},
	{0x20000, 0x2A6DF, Han}, // CJK Extension B
	{0x2A700, 0x2EBEF, Han}, // CJK Extensions C-F
})

// sortRanges orders the table by lo and verifies it is non-overlapping.
func sortRanges(rs []scriptRange) []scriptRange {
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	for i := 1; i < len(rs); i++ {
		if rs[i].lo <= rs[i-1].hi {
			panic("uniscript: overlapping script ranges")
		}
	}
	return rs
}

// bmpScripts is Of's answer for every BMP code point, filled from
// ranges at package init: Common below U+0080, Unknown above, then each
// range's script over its BMP part.
var bmpScripts [1 << 16]uint8

func init() {
	for r := 0; r < 0x80; r++ {
		bmpScripts[r] = uint8(Common)
	}
	for _, sr := range ranges {
		for r := sr.lo; r <= sr.hi && r < rune(len(bmpScripts)); r++ {
			bmpScripts[r] = uint8(sr.script)
		}
	}
}

// Of returns the script of code point r. Code points absent from the table
// but below U+0080 are Common (ASCII punctuation and controls); all other
// absent code points are Unknown. A BMP code point is one load from
// bmpScripts; any other is found by ofRange.
func Of(r rune) Script {
	if uint32(r) < uint32(len(bmpScripts)) {
		return Script(bmpScripts[r])
	}
	return ofRange(r)
}

// ofRange is Of by binary search over ranges.
func ofRange(r rune) Script {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].hi >= r })
	if i < len(ranges) && ranges[i].lo <= r && r <= ranges[i].hi {
		return ranges[i].script
	}
	if r < 0x80 {
		return Common
	}
	return Unknown
}

// Set is a bit set of scripts found in a string.
type Set uint32

// Add inserts a script into the set.
func (s *Set) Add(sc Script) { *s |= 1 << uint(sc) }

// Has reports whether the set contains sc.
func (s Set) Has(sc Script) bool { return s&(1<<uint(sc)) != 0 }

// Len returns the number of scripts in the set.
func (s Set) Len() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// Scripts returns the members of the set in ascending Script order.
func (s Set) Scripts() []Script {
	var out []Script
	for sc := Unknown; sc <= Georgian; sc++ {
		if s.Has(sc) {
			out = append(out, sc)
		}
	}
	return out
}

// Analysis summarizes the script composition of a label. It is the input to
// the browser display policies: Mozilla's algorithm displays Unicode only if
// the label is "single script" (ignoring Common/Inherited), and Chrome adds
// further restrictions for confusable-heavy scripts.
type Analysis struct {
	// Concrete holds the non-Common, non-Inherited scripts present.
	Concrete Set
	// HasCommon reports whether Common code points are present.
	HasCommon bool
	// HasInherited reports whether combining marks are present.
	HasInherited bool
	// HasUnknown reports whether unclassified code points are present.
	HasUnknown bool
	// ASCIIOnly reports whether every code point is below U+0080.
	ASCIIOnly bool
}

// Analyze computes the script composition of label.
func Analyze(label string) Analysis {
	a := Analysis{ASCIIOnly: true}
	for _, r := range label {
		if r >= 0x80 {
			a.ASCIIOnly = false
		}
		switch sc := Of(r); sc {
		case Common:
			a.HasCommon = true
		case Inherited:
			a.HasInherited = true
		case Unknown:
			a.HasUnknown = true
		default:
			a.Concrete.Add(sc)
		}
	}
	return a
}

// SingleScript reports whether the label's concrete scripts number at most
// one (the Mozilla "IDN display algorithm" criterion). Common and Inherited
// code points do not break single-script status, but Unknown ones do.
func (a Analysis) SingleScript() bool {
	return a.Concrete.Len() <= 1 && !a.HasUnknown
}

// Dominant returns the single concrete script of the analysis, or Unknown
// when there are zero or multiple concrete scripts.
func (a Analysis) Dominant() Script {
	scripts := a.Concrete.Scripts()
	if len(scripts) == 1 {
		return scripts[0]
	}
	return Unknown
}
