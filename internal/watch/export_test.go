package watch

import "context"

// ProcessFile streams one delta file end to end: parse, match, append
// every alert, Sync the log, then advance and persist the cursor.
// Returns the number of alerts the delta produced.
func (r *Runner) ProcessFile(ctx context.Context, path string) (int, error) {
	if err := r.init(); err != nil {
		return 0, err
	}
	d, err := loadDelta(path)
	if err != nil {
		return 0, err
	}
	return r.processDelta(ctx, d)
}

// Of returns brand's subscribers. The slice aliases the snapshot's
// backing array: read-only, valid for the snapshot's lifetime, zero
// allocations.
func (s *SubSnapshot) Of(brand uint32) []uint64 {
	if int(brand) >= len(s.off)-1 {
		return nil
	}
	return s.ids[s.off[brand]:s.off[brand+1]]
}
