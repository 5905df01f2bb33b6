package cli

import "testing"

// TestCheckScaleAndBrands pins the two flag checks the commands run
// before any work: -scale is at least 1, and a brand-catalog depth is
// within the brand list, whose length is 1000.
func TestCheckScaleAndBrands(t *testing.T) {
	for _, c := range []struct {
		n                int
		scaleOK, brandOK bool
	}{
		{-1, false, false},
		{0, false, false},
		{1, true, true},
		{1000, true, true},
		{1001, true, false},
	} {
		if err := CheckScale(c.n); (err == nil) != c.scaleOK {
			t.Errorf("CheckScale(%d) = %v, want ok=%v", c.n, err, c.scaleOK)
		}
		if err := CheckBrands(c.n); (err == nil) != c.brandOK {
			t.Errorf("CheckBrands(%d) = %v, want ok=%v", c.n, err, c.brandOK)
		}
	}
}
