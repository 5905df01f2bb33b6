package stats

// Max returns the largest sample value.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}
