package core

import (
	"fmt"
	"io"

	"idnlab/internal/brands"
)

// Type-2 semantic attack detection — the extension the paper scopes out
// ("Confirming whether domains are Type-2 abuse is challenging, as mapping
// a potential Type-2 abuse to its targeted brand is not always feasible",
// §V) but illustrates in Table X: IDNs created by *translating* English
// brand names into other languages, e.g. 格力空调.net for Gree Air
// Conditioner or 奔驰汽车.com for Mercedes-Benz.
//
// The mapping problem is solved here the only way it can be: with a
// curated translation dictionary. The detector is therefore exact over its
// dictionary and silent outside it, which is the honest operating point
// for this attack class.

// Type2Match is one detected translated-brand IDN.
type Type2Match struct {
	// Domain is the IDN in ACE form.
	Domain string
	// Unicode is the display form.
	Unicode string
	// Brand is the impersonated brand domain.
	Brand string
	// Translation is the dictionary entry that matched.
	Translation string
}

// String renders a Type-2 match.
func (m Type2Match) String() string {
	return m.Unicode + " (" + m.Domain + ") translates " + m.Brand
}

// Type2Detector finds translated-brand IDNs over a translation dictionary.
type Type2Detector struct {
	byTranslation map[string]type2Entry
}

type type2Entry struct {
	brand       string
	translation string
}

// NewType2Detector builds a detector from a dictionary; pass nil to use
// BrandTranslations.
func NewType2Detector(dict map[string][]string) *Type2Detector {
	if dict == nil {
		dict = brands.Translations
	}
	d := &Type2Detector{byTranslation: make(map[string]type2Entry)}
	for brand, names := range dict {
		for _, name := range names {
			d.byTranslation[name] = type2Entry{brand: brand, translation: name}
		}
	}
	return d
}

// DetectNormalized checks one normalized domain for Type-2 abuse: the
// label must exactly equal a dictionary translation.
func (d *Type2Detector) DetectNormalized(n NormalizedDomain) (Type2Match, bool) {
	entry, ok := d.byTranslation[n.Label]
	if !ok {
		return Type2Match{}, false
	}
	return Type2Match{
		Domain:      n.ACE,
		Unicode:     n.Unicode,
		Brand:       entry.brand,
		Translation: entry.translation,
	}, true
}

// ReportTable10 renders the Type-2 reproduction of the paper's Table X.
func (st *Study) ReportTable10(w io.Writer) error {
	matches := st.matches().type2
	tw := newTab(w)
	fmt.Fprintf(tw, "TABLE X: Type-2 semantic abuse (translated brand names), %d detected\n", len(matches))
	fmt.Fprintln(tw, "Punycode\tUnicode\tBrand")
	for i, m := range matches {
		if i >= 10 {
			break
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Domain, m.Unicode, m.Brand)
	}
	return tw.Flush()
}
