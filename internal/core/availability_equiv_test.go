package core

import (
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/confusables"
	"idnlab/internal/idna"
)

// availabilityReference is the materialize-and-Score sweep the cell-patch
// fast path replaced: every variant string is built, rendered in full and
// scored through Score. It is the oracle for the equivalence test below.
func availabilityReference(d *HomographDetector, topK int, registered []string) []AvailabilityResult {
	regSet := make(map[string]struct{}, len(registered))
	for _, r := range registered {
		regSet[r] = struct{}{}
	}
	genTable := confusables.BuildMulti(GenerationOverlapThreshold)
	var out []AvailabilityResult
	for _, b := range brands.TopK(topK) {
		label := b.Label()
		res := AvailabilityResult{Brand: b.Domain}
		for _, v := range genTable.Variants(label) {
			res.Candidates++
			if d.Score(v, label) < d.Threshold() {
				continue
			}
			res.Homographic++
			ace, err := idna.ToASCIILabel(v)
			if err != nil {
				continue
			}
			for _, tld := range []string{"com", "net", "org"} {
				if _, ok := regSet[ace+"."+tld]; ok {
					res.Registered++
				}
			}
		}
		out = append(out, res)
	}
	return out
}

// TestAvailabilityStudyEquivalence pins the cell-patching availability
// sweep to the brute-force reference: every per-brand candidate,
// homographic and registered count must agree, because the patched raster
// is pixel-identical to a full render and IndexRefSub is bit-identical to
// IndexRef.
func TestAvailabilityStudyEquivalence(t *testing.T) {
	got := NewHomographDetector(50).AvailabilityStudyReg(50, testIndex().AvailabilityReg())
	want := availabilityReference(NewHomographDetector(50), 50, testDS.IDNs)
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("brand %q: fast path %+v, reference %+v", want[i].Brand, got[i], want[i])
		}
	}
}

// TestAvailabilityStudyCloneIsolation runs the sweep on a Clone and on the
// original concurrently-shaped state: a Clone must own its own SSIM
// scratch (no shared Comparator buffer) and produce identical results.
func TestAvailabilityStudyCloneIsolation(t *testing.T) {
	d := NewHomographDetector(20)
	orig := d.AvailabilityStudyReg(20, testIndex().AvailabilityReg())
	c := d.Clone()
	if c.cmp == d.cmp {
		t.Fatal("Clone shares the SSIM comparator scratch")
	}
	cloned := c.AvailabilityStudyReg(20, testIndex().AvailabilityReg())
	for i := range orig {
		if orig[i] != cloned[i] {
			t.Fatalf("clone diverges at %q: %+v vs %+v", orig[i].Brand, cloned[i], orig[i])
		}
	}
}
