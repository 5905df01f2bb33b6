package glyph

// Mark identifies a diacritical mark drawn in the two-row bands above or
// below a base glyph, or an overlay struck through the core band. The
// composition system mirrors how Latin Extended code points relate to their
// ASCII skeletons: ą is a + ogonek, ö is o + diaeresis, ł is l + stroke.
type Mark int

// Marks supported by the composer.
const (
	_ Mark = iota // zero: no mark
	MarkAcute
	MarkGrave
	MarkCircumflex
	MarkTilde
	MarkDiaeresis
	MarkDotAbove
	MarkRingAbove
	MarkMacron
	MarkBreve
	MarkCaron
	MarkHookAbove
	MarkDoubleAcute
	MarkDotBelow
	MarkCedilla
	MarkOgonek
	MarkCommaBelow
	MarkStroke // horizontal bar through the core band
	MarkSlash  // diagonal overlay through the core band
)

// markRows describes the pixels a mark paints. Above-marks use the two rows
// above the core band; below-marks the two rows beneath it. Overlay marks
// are handled separately in compose.
type markRows struct {
	rows  [2]string // 5 columns each; '#' paints
	below bool
}

var markTable = map[Mark]markRows{
	MarkAcute:       {rows: [2]string{"...#.", "..#.."}},
	MarkGrave:       {rows: [2]string{".#...", "..#.."}},
	MarkCircumflex:  {rows: [2]string{"..#..", ".#.#."}},
	MarkTilde:       {rows: [2]string{".#..#", "#.##."}},
	MarkDiaeresis:   {rows: [2]string{".....", ".#.#."}},
	MarkDotAbove:    {rows: [2]string{".....", "..#.."}},
	MarkRingAbove:   {rows: [2]string{"..#..", "..#.."}},
	MarkMacron:      {rows: [2]string{".....", ".###."}},
	MarkBreve:       {rows: [2]string{"#...#", ".###."}},
	MarkCaron:       {rows: [2]string{".#.#.", "..#.."}},
	MarkHookAbove:   {rows: [2]string{"..##.", "...#."}},
	MarkDoubleAcute: {rows: [2]string{"..#.#", ".#.#."}},
	MarkDotBelow:    {rows: [2]string{"..#..", "....."}, below: true},
	MarkCedilla:     {rows: [2]string{"..#..", ".##.."}, below: true},
	MarkOgonek:      {rows: [2]string{"..#..", "..##."}, below: true},
	MarkCommaBelow:  {rows: [2]string{"..#..", ".#..."}, below: true},
}

// spec describes how to draw one Unicode code point: a base ASCII glyph
// plus optional marks. A code point whose spec has no marks renders
// pixel-identical to its base — these are the "identical" homoglyphs
// (e.g. Cyrillic а vs Latin a) that produce SSIM = 1.00 rows in Table XII.
type spec struct {
	base  rune
	marks []Mark
}

// composed maps non-ASCII code points to their drawing specification.
// The table covers the homoglyph repertoire observed in the paper's corpus:
// Cyrillic/Greek identicals, Latin-1 and Latin Extended A/B diacritics, the
// Vietnamese additions (Latin Extended Additional) and a few fullwidth
// forms. It is deliberately conservative: code points not listed here and
// not in baseFont render as hash glyphs (see render.go) and therefore can
// never collide with a brand's rendering.
var composed = map[rune]spec{
	// Cyrillic identicals and near-identicals.
	'а': {base: 'a'}, // U+0430
	'е': {base: 'e'}, // U+0435
	'о': {base: 'o'}, // U+043E
	'р': {base: 'p'}, // U+0440
	'с': {base: 'c'}, // U+0441
	'ѕ': {base: 's'}, // U+0455
	'і': {base: 'i'}, // U+0456
	'ј': {base: 'j'}, // U+0458
	'х': {base: 'x'}, // U+0445
	'у': {base: 'y'}, // U+0443
	'ԁ': {base: 'd'}, // U+0501
	'ԛ': {base: 'q'}, // U+051B
	'ԝ': {base: 'w'}, // U+051D
	'ӏ': {base: 'l'}, // U+04CF palochka
	'ё': {base: 'e', marks: []Mark{MarkDiaeresis}},
	// Greek identicals.
	'ο': {base: 'o'}, // U+03BF omicron
	'ν': {base: 'v'}, // U+03BD nu
	'ι': {base: 'i', marks: nil},
	// Latin-1 Supplement.
	'à': {base: 'a', marks: []Mark{MarkGrave}},
	'á': {base: 'a', marks: []Mark{MarkAcute}},
	'â': {base: 'a', marks: []Mark{MarkCircumflex}},
	'ã': {base: 'a', marks: []Mark{MarkTilde}},
	'ä': {base: 'a', marks: []Mark{MarkDiaeresis}},
	'å': {base: 'a', marks: []Mark{MarkRingAbove}},
	'ç': {base: 'c', marks: []Mark{MarkCedilla}},
	'è': {base: 'e', marks: []Mark{MarkGrave}},
	'é': {base: 'e', marks: []Mark{MarkAcute}},
	'ê': {base: 'e', marks: []Mark{MarkCircumflex}},
	'ë': {base: 'e', marks: []Mark{MarkDiaeresis}},
	'ì': {base: 'i', marks: []Mark{MarkGrave}},
	'í': {base: 'i', marks: []Mark{MarkAcute}},
	'î': {base: 'i', marks: []Mark{MarkCircumflex}},
	'ï': {base: 'i', marks: []Mark{MarkDiaeresis}},
	'ð': {base: 'd', marks: []Mark{MarkStroke}},
	'ñ': {base: 'n', marks: []Mark{MarkTilde}},
	'ò': {base: 'o', marks: []Mark{MarkGrave}},
	'ó': {base: 'o', marks: []Mark{MarkAcute}},
	'ô': {base: 'o', marks: []Mark{MarkCircumflex}},
	'õ': {base: 'o', marks: []Mark{MarkTilde}},
	'ö': {base: 'o', marks: []Mark{MarkDiaeresis}},
	'ø': {base: 'o', marks: []Mark{MarkSlash}},
	'ù': {base: 'u', marks: []Mark{MarkGrave}},
	'ú': {base: 'u', marks: []Mark{MarkAcute}},
	'û': {base: 'u', marks: []Mark{MarkCircumflex}},
	'ü': {base: 'u', marks: []Mark{MarkDiaeresis}},
	'ý': {base: 'y', marks: []Mark{MarkAcute}},
	'ÿ': {base: 'y', marks: []Mark{MarkDiaeresis}},
	// Latin Extended-A.
	'ā': {base: 'a', marks: []Mark{MarkMacron}},
	'ă': {base: 'a', marks: []Mark{MarkBreve}},
	'ą': {base: 'a', marks: []Mark{MarkOgonek}},
	'ć': {base: 'c', marks: []Mark{MarkAcute}},
	'ĉ': {base: 'c', marks: []Mark{MarkCircumflex}},
	'ċ': {base: 'c', marks: []Mark{MarkDotAbove}},
	'č': {base: 'c', marks: []Mark{MarkCaron}},
	'ď': {base: 'd', marks: []Mark{MarkCaron}},
	'đ': {base: 'd', marks: []Mark{MarkStroke}},
	'ē': {base: 'e', marks: []Mark{MarkMacron}},
	'ĕ': {base: 'e', marks: []Mark{MarkBreve}},
	'ė': {base: 'e', marks: []Mark{MarkDotAbove}},
	'ę': {base: 'e', marks: []Mark{MarkOgonek}},
	'ě': {base: 'e', marks: []Mark{MarkCaron}},
	'ĝ': {base: 'g', marks: []Mark{MarkCircumflex}},
	'ğ': {base: 'g', marks: []Mark{MarkBreve}},
	'ġ': {base: 'g', marks: []Mark{MarkDotAbove}},
	'ģ': {base: 'g', marks: []Mark{MarkCedilla}},
	'ĥ': {base: 'h', marks: []Mark{MarkCircumflex}},
	'ħ': {base: 'h', marks: []Mark{MarkStroke}},
	'ĩ': {base: 'i', marks: []Mark{MarkTilde}},
	'ī': {base: 'i', marks: []Mark{MarkMacron}},
	'ĭ': {base: 'i', marks: []Mark{MarkBreve}},
	'į': {base: 'i', marks: []Mark{MarkOgonek}},
	'ı': {base: 'i'}, // dotless i; marks only add pixels, so model as identity
	'ĵ': {base: 'j', marks: []Mark{MarkCircumflex}},
	'ķ': {base: 'k', marks: []Mark{MarkCedilla}},
	'ĺ': {base: 'l', marks: []Mark{MarkAcute}},
	'ļ': {base: 'l', marks: []Mark{MarkCedilla}},
	'ľ': {base: 'l', marks: []Mark{MarkCaron}},
	'ł': {base: 'l', marks: []Mark{MarkSlash}},
	'ń': {base: 'n', marks: []Mark{MarkAcute}},
	'ņ': {base: 'n', marks: []Mark{MarkCedilla}},
	'ň': {base: 'n', marks: []Mark{MarkCaron}},
	'ō': {base: 'o', marks: []Mark{MarkMacron}},
	'ŏ': {base: 'o', marks: []Mark{MarkBreve}},
	'ő': {base: 'o', marks: []Mark{MarkDoubleAcute}},
	'ŕ': {base: 'r', marks: []Mark{MarkAcute}},
	'ŗ': {base: 'r', marks: []Mark{MarkCedilla}},
	'ř': {base: 'r', marks: []Mark{MarkCaron}},
	'ś': {base: 's', marks: []Mark{MarkAcute}},
	'ŝ': {base: 's', marks: []Mark{MarkCircumflex}},
	'ş': {base: 's', marks: []Mark{MarkCedilla}},
	'š': {base: 's', marks: []Mark{MarkCaron}},
	'ţ': {base: 't', marks: []Mark{MarkCedilla}},
	'ť': {base: 't', marks: []Mark{MarkCaron}},
	'ŧ': {base: 't', marks: []Mark{MarkStroke}},
	'ũ': {base: 'u', marks: []Mark{MarkTilde}},
	'ū': {base: 'u', marks: []Mark{MarkMacron}},
	'ŭ': {base: 'u', marks: []Mark{MarkBreve}},
	'ů': {base: 'u', marks: []Mark{MarkRingAbove}},
	'ű': {base: 'u', marks: []Mark{MarkDoubleAcute}},
	'ų': {base: 'u', marks: []Mark{MarkOgonek}},
	'ŵ': {base: 'w', marks: []Mark{MarkCircumflex}},
	'ŷ': {base: 'y', marks: []Mark{MarkCircumflex}},
	'ź': {base: 'z', marks: []Mark{MarkAcute}},
	'ż': {base: 'z', marks: []Mark{MarkDotAbove}},
	'ž': {base: 'z', marks: []Mark{MarkCaron}},
	// Latin Extended-B and additions.
	'ƀ': {base: 'b', marks: []Mark{MarkStroke}},
	'ǵ': {base: 'g', marks: []Mark{MarkAcute}},
	'ș': {base: 's', marks: []Mark{MarkCommaBelow}},
	'ț': {base: 't', marks: []Mark{MarkCommaBelow}},
	'ɡ': {base: 'g'}, // U+0261 script g
	// Latin Extended Additional (Vietnamese and dot-below series).
	'ạ': {base: 'a', marks: []Mark{MarkDotBelow}},
	'ả': {base: 'a', marks: []Mark{MarkHookAbove}},
	'ấ': {base: 'a', marks: []Mark{MarkCircumflex, MarkAcute}},
	'ầ': {base: 'a', marks: []Mark{MarkCircumflex, MarkGrave}},
	'ḅ': {base: 'b', marks: []Mark{MarkDotBelow}},
	'ḋ': {base: 'd', marks: []Mark{MarkDotAbove}},
	'ḍ': {base: 'd', marks: []Mark{MarkDotBelow}},
	'ẹ': {base: 'e', marks: []Mark{MarkDotBelow}},
	'ẻ': {base: 'e', marks: []Mark{MarkHookAbove}},
	'ḟ': {base: 'f', marks: []Mark{MarkDotAbove}},
	'ḣ': {base: 'h', marks: []Mark{MarkDotAbove}},
	'ḥ': {base: 'h', marks: []Mark{MarkDotBelow}},
	'ị': {base: 'i', marks: []Mark{MarkDotBelow}},
	'ḳ': {base: 'k', marks: []Mark{MarkDotBelow}},
	'ḷ': {base: 'l', marks: []Mark{MarkDotBelow}},
	'ḿ': {base: 'm', marks: []Mark{MarkAcute}},
	'ṃ': {base: 'm', marks: []Mark{MarkDotBelow}},
	'ṅ': {base: 'n', marks: []Mark{MarkDotAbove}},
	'ṇ': {base: 'n', marks: []Mark{MarkDotBelow}},
	'ọ': {base: 'o', marks: []Mark{MarkDotBelow}},
	'ỏ': {base: 'o', marks: []Mark{MarkHookAbove}},
	'ṗ': {base: 'p', marks: []Mark{MarkDotAbove}},
	'ṕ': {base: 'p', marks: []Mark{MarkAcute}},
	'ṙ': {base: 'r', marks: []Mark{MarkDotAbove}},
	'ṛ': {base: 'r', marks: []Mark{MarkDotBelow}},
	'ṡ': {base: 's', marks: []Mark{MarkDotAbove}},
	'ṣ': {base: 's', marks: []Mark{MarkDotBelow}},
	'ṫ': {base: 't', marks: []Mark{MarkDotAbove}},
	'ṭ': {base: 't', marks: []Mark{MarkDotBelow}},
	'ụ': {base: 'u', marks: []Mark{MarkDotBelow}},
	'ủ': {base: 'u', marks: []Mark{MarkHookAbove}},
	'ṿ': {base: 'v', marks: []Mark{MarkDotBelow}},
	'ẁ': {base: 'w', marks: []Mark{MarkGrave}},
	'ẃ': {base: 'w', marks: []Mark{MarkAcute}},
	'ẅ': {base: 'w', marks: []Mark{MarkDiaeresis}},
	'ẇ': {base: 'w', marks: []Mark{MarkDotAbove}},
	'ẉ': {base: 'w', marks: []Mark{MarkDotBelow}},
	'ẋ': {base: 'x', marks: []Mark{MarkDotAbove}},
	'ẏ': {base: 'y', marks: []Mark{MarkDotAbove}},
	'ỳ': {base: 'y', marks: []Mark{MarkGrave}},
	'ỵ': {base: 'y', marks: []Mark{MarkDotBelow}},
	'ỷ': {base: 'y', marks: []Mark{MarkHookAbove}},
	'ẑ': {base: 'z', marks: []Mark{MarkCircumflex}},
	'ẓ': {base: 'z', marks: []Mark{MarkDotBelow}},
	// Unicode small capitals (phonetic extensions / Latin Ext-D): the
	// classic dnstwist-era homoglyph set; modelled as identity renderings
	// of their base letters.
	'ᴀ': {base: 'a'}, 'ʙ': {base: 'b'}, 'ᴄ': {base: 'c'}, 'ᴅ': {base: 'd'},
	'ᴇ': {base: 'e'}, 'ɢ': {base: 'g'}, 'ʜ': {base: 'h'},
	'ɪ': {base: 'i'}, 'ᴊ': {base: 'j'}, 'ᴋ': {base: 'k'}, 'ʟ': {base: 'l'},
	'ᴍ': {base: 'm'}, 'ɴ': {base: 'n'}, 'ᴏ': {base: 'o'}, 'ᴘ': {base: 'p'},
	'ʀ': {base: 'r'}, 'ᴛ': {base: 't'},
	'ᴜ': {base: 'u'}, 'ᴠ': {base: 'v'}, 'ᴡ': {base: 'w'}, 'ʏ': {base: 'y'},
	'ᴢ': {base: 'z'},
	// IPA lookalikes.
	'ɑ': {base: 'a'}, // latin alpha
	'ʋ': {base: 'v'},
	'ɯ': {base: 'w'},
	'ɩ': {base: 'i'},
	// Fullwidth forms render as their ASCII skeletons.
	'ａ': {base: 'a'}, 'ｂ': {base: 'b'}, 'ｃ': {base: 'c'}, 'ｄ': {base: 'd'},
	'ｅ': {base: 'e'}, 'ｆ': {base: 'f'}, 'ｇ': {base: 'g'}, 'ｈ': {base: 'h'},
	'ｉ': {base: 'i'}, 'ｊ': {base: 'j'}, 'ｋ': {base: 'k'}, 'ｌ': {base: 'l'},
	'ｍ': {base: 'm'}, 'ｎ': {base: 'n'}, 'ｏ': {base: 'o'}, 'ｐ': {base: 'p'},
	'ｑ': {base: 'q'}, 'ｒ': {base: 'r'}, 'ｓ': {base: 's'}, 'ｔ': {base: 't'},
	'ｕ': {base: 'u'}, 'ｖ': {base: 'v'}, 'ｗ': {base: 'w'}, 'ｘ': {base: 'x'},
	'ｙ': {base: 'y'}, 'ｚ': {base: 'z'},
	'０': {base: '0'}, '１': {base: '1'}, '２': {base: '2'}, '３': {base: '3'},
	'４': {base: '4'}, '５': {base: '5'}, '６': {base: '6'}, '７': {base: '7'},
	'８': {base: '8'}, '９': {base: '9'},
}

// Composed returns the list of code points in the composition table, in
// unspecified order. It is used by package confusables to enumerate the
// homoglyph candidate space.
func Composed() []rune {
	out := make([]rune, 0, len(composed))
	for r := range composed {
		out = append(out, r)
	}
	return out
}

// MarksOf returns the marks applied to r's base glyph, nil for identity
// renderings, and ok=false for code points outside the composition table.
func MarksOf(r rune) (marks []Mark, ok bool) {
	s, found := composed[r]
	if !found {
		return nil, false
	}
	out := make([]Mark, len(s.marks))
	copy(out, s.marks)
	return out, true
}
