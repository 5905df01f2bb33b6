package watch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"idnlab/internal/framelog"
)

// Cursor is the daemon's durable progress marker: the highest delta
// serial whose alerts are on stable storage, and the alert-log offset
// at that point. The update protocol is alerts-first: the runner
// appends and Sync()s every alert from a delta, then persists the
// cursor. A crash between the two replays the whole delta on restart —
// duplicate alerts, never lost ones (at-least-once), and duplicates
// carry the same (serial, domain) keys so consumers can drop them.
type Cursor struct {
	Serial    uint32 `json:"serial"`
	LogOffset int64  `json:"logOffset"`
}

// LoadCursor reads a cursor file; a missing file is a zero cursor (run
// from the beginning), any other failure is an error.
func LoadCursor(path string) (Cursor, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Cursor{}, nil
	}
	if err != nil {
		return Cursor{}, err
	}
	var c Cursor
	if err := json.Unmarshal(data, &c); err != nil {
		return Cursor{}, fmt.Errorf("watch: corrupt cursor %s: %w", path, err)
	}
	return c, nil
}

// SaveCursor writes the cursor atomically (framelog.ReplaceFile) so a
// crash or a failed write mid-save leaves the previous cursor intact.
func SaveCursor(path string, c Cursor) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return framelog.ReplaceFile(path, framelog.Options{}, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ParseDeltaFileName extracts the serial from a delta file name of the
// form "delta-0000000001.zone" (the shape zonegen emits).
func ParseDeltaFileName(name string) (uint32, bool) {
	rest, ok := strings.CutPrefix(name, "delta-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".zone")
	if !ok || len(rest) == 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// Runner ties the pieces into the daemon's main loop: tail a directory
// of delta files, stream each new one through the engine, append the
// alerts durably, advance the cursor.
type Runner struct {
	Engine     *Engine
	Log        *AlertLog
	Dir        string // delta directory to tail
	CursorPath string // cursor file; empty disables persistence

	cursor Cursor
	loaded bool
}

// Cursor returns the runner's current in-memory cursor.
func (r *Runner) Cursor() Cursor { return r.cursor }

// init loads the persisted cursor on first use.
func (r *Runner) init() error {
	if r.loaded {
		return nil
	}
	if r.CursorPath != "" {
		c, err := LoadCursor(r.CursorPath)
		if err != nil {
			return err
		}
		r.cursor = c
	}
	r.loaded = true
	return nil
}

// pendingFiles lists delta files in Dir with serials above the cursor,
// in serial order.
func (r *Runner) pendingFiles() ([]string, error) {
	entries, err := os.ReadDir(r.Dir)
	if err != nil {
		return nil, err
	}
	type pf struct {
		serial uint32
		path   string
	}
	var files []pf
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		serial, ok := ParseDeltaFileName(e.Name())
		if !ok || serial <= r.cursor.Serial {
			continue
		}
		files = append(files, pf{serial, filepath.Join(r.Dir, e.Name())})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].serial < files[j].serial })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}

// loadDelta parses one delta file. A file named for a serial must
// carry that serial in its SOA headers: the runner picks files by name
// but advances the cursor by header, so a mismatch would either replay
// the file on every poll (header below name) or skip the files between
// them (header above).
func loadDelta(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := ParseDelta(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if serial, ok := ParseDeltaFileName(filepath.Base(path)); ok && serial != d.Serial {
		return nil, fmt.Errorf("%s: header serial %d does not match file name serial %d", path, d.Serial, serial)
	}
	return d, nil
}

// processDelta matches a parsed delta, appends its alerts, Syncs the
// log, then advances and persists the cursor. A started file always
// finishes: the match runs without ctx's cancellation, because a cancel
// inside it would leave that file's alerts in the log past the cursor.
// Cancellation is honoured between files (Poll).
func (r *Runner) processDelta(ctx context.Context, d *Delta) (int, error) {
	alerts := 0
	err := r.Engine.ProcessDelta(context.WithoutCancel(ctx), d, func(a Alert) error {
		alerts++
		return r.Log.Append(a)
	})
	if err != nil {
		return alerts, err
	}
	// Durability barrier before the cursor moves: this ordering is the
	// at-least-once guarantee.
	if err := r.Log.Sync(); err != nil {
		return alerts, err
	}
	r.cursor = Cursor{Serial: d.Serial, LogOffset: r.Log.Size()}
	if r.CursorPath != "" {
		if err := SaveCursor(r.CursorPath, r.cursor); err != nil {
			return alerts, err
		}
	}
	return alerts, nil
}

// parsed is one lookahead result: a file's delta or its parse error.
type parsed struct {
	d   *Delta
	err error
}

// Poll processes every pending delta file once, in serial order.
// Returns the number of files processed and the number of alerts.
//
// One lookahead goroutine parses file n+1 while file n is matched and
// committed; the unbuffered hand-off bounds it to one parsed delta
// ahead. Commits stay strictly in serial order, and a parse error is
// returned only after every earlier file is committed. Poll returns
// only after the lookahead has exited. Cancellation has one point,
// between files: a file whose processing has started is matched, Synced
// and gets its cursor saved before Poll returns ctx.Err().
func (r *Runner) Poll(ctx context.Context) (files, alerts int, err error) {
	if err := r.init(); err != nil {
		return 0, 0, err
	}
	paths, err := r.pendingFiles()
	if err != nil || len(paths) == 0 {
		return 0, 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	ahead := make(chan parsed)
	done := make(chan struct{})
	defer func() {
		cancel()
		<-done
	}()
	go func() {
		defer close(done)
		defer close(ahead)
		for _, p := range paths {
			d, err := loadDelta(p)
			select {
			case ahead <- parsed{d, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for next := range ahead {
		if ctx.Err() != nil {
			break
		}
		if next.err != nil {
			return files, alerts, next.err
		}
		n, err := r.processDelta(ctx, next.d)
		alerts += n
		if err != nil {
			return files, alerts, err
		}
		files++
	}
	return files, alerts, ctx.Err()
}

// Run polls until the context is cancelled, sleeping interval between
// empty polls. A cancel takes effect between files: the current file is
// matched, Synced and its cursor saved before Run returns ctx.Err(), so
// the log never holds alerts past the cursor.
func (r *Runner) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if _, _, err := r.Poll(ctx); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}
