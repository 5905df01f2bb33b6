package watch

import "context"

// ProcessFile streams one delta file end to end: parse, match, append
// every alert, Sync the log, then advance and persist the cursor.
// Returns the number of alerts the delta produced.
func (r *Runner) ProcessFile(ctx context.Context, path string) (int, error) {
	d, err := loadDelta(path)
	if err != nil {
		return 0, err
	}
	alerts, err := r.engine.match(context.WithoutCancel(ctx), d)
	if err != nil {
		return 0, err
	}
	return r.commitDelta(d.Serial, alerts)
}

// Of returns brand's subscribers, none before Compile. The slice aliases
// the table's array: read-only, zero allocations.
func (t *SubTable) Of(brand uint32) []uint64 {
	if int(brand) >= len(t.off)-1 {
		return nil
	}
	return t.ids[t.off[brand]:t.off[brand+1]]
}
