package simchar

import "unicode/utf8"

// Identical reports whether r renders pixel-identically to an ASCII base,
// and which.
func (t *Table) Identical(r rune) (byte, bool) {
	if r < 0x80 {
		b, ok := t.Fold(r)
		return b, ok
	}
	if b, ok := t.identity[r]; ok {
		return b, true
	}
	b, ok := t.bitmapBase[t.re.CellBits(r)]
	return b, ok
}

// AppendSkeleton appends the skeleton fold of label to dst and returns
// the extended slice: folding runes become their ASCII base byte,
// unfoldable runes keep their UTF-8 bytes. The fold is idempotent and
// allocation-free when dst has capacity.
func (t *Table) AppendSkeleton(dst []byte, label string) []byte {
	for _, r := range label {
		if b, ok := t.Fold(r); ok {
			dst = append(dst, b)
		} else {
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
