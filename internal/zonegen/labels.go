package zonegen

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"idnlab/internal/simchar"
)

// Labeled ground truth for the statistical classifier (internal/feat):
// every generated domain with an unambiguous class, tagged with its
// generator population and a deterministic train/eval split. The CSV
// emitted by `idnzonegen -labels` and consumed by `idnstat train` is a
// direct serialization of this view, so the training CLI and every
// in-process consumer (the report's abuse-taxonomy section, the serve
// tests, the benchmarks) share one ground-truth artifact.

// LabeledDomain is one labeled example.
type LabeledDomain struct {
	// ACE and Unicode are the registered name in both forms.
	ACE     string
	Unicode string
	// TLD is the zone without trailing dot.
	TLD string
	// Population names the generator population: "homograph",
	// "semantic", "semantic2", "protective" (positives) or
	// "benign-idn", "benign-ascii" (negatives).
	Population string
	// AgeDays is the registration age at the corpus snapshot.
	AgeDays float64
	// Positive is the classifier's ground-truth class.
	Positive bool
	// Eval marks the ~20% held-out split (deterministic by ACE hash).
	Eval bool
}

// evalSalt separates the split hash from every other use of the seed.
const evalSalt = 0x5eed1ab5

// Labels derives the labeled train/eval view of the generated universe.
// Positives are the attack populations — including protective
// registrations, which are the same strings registered defensively —
// and negatives the benign populations. Domains that are blacklisted
// without belonging to an attack population (opportunistic abuse:
// gambling redirects, malicious non-attack registrations) are excluded
// as ambiguous: their labels are structurally benign, and the
// classifier's contract is structural.
//
// The split is deterministic per (seed, ACE): ~20% of examples hash
// into the held-out eval set, independent of generation order.
func (r *Registry) Labels() []LabeledDomain {
	out := make([]LabeledDomain, 0, len(r.Domains))
	for i := range r.Domains {
		d := &r.Domains[i]
		var pop string
		positive := true
		switch {
		case d.Protective:
			pop = "protective"
		case d.Attack == AttackHomograph:
			pop = "homograph"
		case d.Attack == AttackSemantic:
			pop = "semantic"
		case d.Attack == AttackSemantic2:
			pop = "semantic2"
		case d.Malicious():
			continue // opportunistic abuse: structurally benign, skip
		case d.IsIDN:
			pop, positive = "benign-idn", false
		default:
			pop, positive = "benign-ascii", false
		}
		age := Snapshot.Sub(d.Created).Hours() / 24
		if age < 0 {
			age = 0
		}
		out = append(out, LabeledDomain{
			ACE:        d.ACE,
			Unicode:    d.Unicode,
			TLD:        d.TLD,
			Population: pop,
			AgeDays:    age,
			Positive:   positive,
			Eval:       simchar.HashBytes(r.Cfg.Seed^evalSalt, []byte(d.ACE))%5 == 0,
		})
	}
	return out
}

// labelsHeader is the CSV column order; WriteLabels emits it and
// ReadLabels verifies it.
var labelsHeader = []string{"ace", "unicode", "tld", "population", "age_days", "positive", "eval"}

// WriteLabels serializes labels as deterministic CSV (fixed column
// order, fixed float formatting, input order preserved).
func WriteLabels(w io.Writer, labels []LabeledDomain) error {
	bw := bufio.NewWriter(w)
	for i, col := range labelsHeader {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(col)
	}
	bw.WriteByte('\n')
	for _, l := range labels {
		fmt.Fprintf(bw, "%s,%s,%s,%s,%.2f,%s,%s\n",
			l.ACE, l.Unicode, l.TLD, l.Population, l.AgeDays,
			boolStr(l.Positive), boolStr(l.Eval))
	}
	return bw.Flush()
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// ReadLabels parses a WriteLabels CSV.
func ReadLabels(r io.Reader) ([]LabeledDomain, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(labelsHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("zonegen: labels header: %w", err)
	}
	for i, col := range labelsHeader {
		if header[i] != col {
			return nil, fmt.Errorf("zonegen: labels column %d is %q, want %q", i, header[i], col)
		}
	}
	var out []LabeledDomain
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("zonegen: labels row %d: %w", len(out)+2, err)
		}
		age, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("zonegen: labels row %d age: %w", len(out)+2, err)
		}
		pos, err := strconv.ParseBool(rec[5])
		if err != nil {
			return nil, fmt.Errorf("zonegen: labels row %d positive: %w", len(out)+2, err)
		}
		eval, err := strconv.ParseBool(rec[6])
		if err != nil {
			return nil, fmt.Errorf("zonegen: labels row %d eval: %w", len(out)+2, err)
		}
		out = append(out, LabeledDomain{
			ACE: rec[0], Unicode: rec[1], TLD: rec[2], Population: rec[3],
			AgeDays: age, Positive: pos, Eval: eval,
		})
	}
}
