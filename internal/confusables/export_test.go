package confusables

import "sort"

// Size returns the total number of homoglyph entries in the table.
func (t *Table) Size() int {
	n := 0
	for _, hs := range t.byBase {
		n += len(hs)
	}
	return n
}

// Bases returns the ASCII characters that have at least one homoglyph,
// sorted.
func (t *Table) Bases() []rune {
	out := make([]rune, 0, len(t.byBase))
	for b := range t.byBase {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
