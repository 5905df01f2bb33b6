package feat

import (
	"idnlab/internal/idna"
	"idnlab/internal/zonegen"
)

// FromLabeled converts the corpus ground truth into training examples.
// The classifier scores SLD labels, so the domain forms are reduced to
// their label forms here, once, instead of in every training pass.
func FromLabeled(labels []zonegen.LabeledDomain) []Example {
	out := make([]Example, len(labels))
	for i, l := range labels {
		out[i] = Example{
			Label:      idna.SLDLabel(l.Unicode),
			ACELabel:   idna.SLDLabel(l.ACE),
			TLD:        l.TLD,
			AgeDays:    l.AgeDays,
			HasAge:     true,
			Positive:   l.Positive,
			Eval:       l.Eval,
			Population: l.Population,
		}
	}
	return out
}
