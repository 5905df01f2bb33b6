package watch

import (
	"context"
	"encoding/binary"
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
// appends and Sync()s every alert from a delta, then commits the
// cursor. A crash between the two replays the whole delta on restart —
// duplicate alerts, never lost ones (at-least-once), and duplicates
// carry the same (serial, domain) keys so consumers can drop them.
type Cursor struct {
	Serial    uint32 `json:"serial"`
	LogOffset int64  `json:"logOffset"`
}

// The cursor file is a framelog file (see that package for the frame
// layout, Sync barrier and torn-tail recovery) whose header is the bare
// magic and whose payloads are cursors, u32le serial | u64le logOffset.
// Each delta appends one frame; the last whole frame is the cursor. An
// append frees no blocks, where replacing a written file does: on ext4
// mounted with discard that costs ~35 ms per replaced file.
const (
	cursorMagic = "IDNCUR01"
	cursorFrame = 12
)

func (c Cursor) frame() []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, cursorFrame), c.Serial)
	return binary.LittleEndian.AppendUint64(b, uint64(c.LogOffset))
}

func decodeCursor(p []byte) (Cursor, error) {
	if len(p) != cursorFrame {
		return Cursor{}, fmt.Errorf("cursor frame of %d bytes, want %d", len(p), cursorFrame)
	}
	return Cursor{Serial: binary.LittleEndian.Uint32(p), LogOffset: int64(binary.LittleEndian.Uint64(p[4:]))}, nil
}

// openCursor opens the cursor file at path and returns it with the
// cursor its last whole frame holds (zero for a new file). A file of
// more than one frame is first rewritten as its last frame, so the file
// stays one frame long between starts. A file that is not an IDNCUR01
// file — such as the JSON cursor older builds wrote — is refused.
func openCursor(path string) (*framelog.Log, Cursor, error) {
	var c Cursor
	frames := 0
	read := func(_ int64, p []byte) (err error) {
		frames++
		c, err = decodeCursor(p)
		return err
	}
	l, err := framelog.Open(path, []byte(cursorMagic), read)
	switch {
	case errors.Is(err, framelog.ErrMagic):
		return nil, Cursor{}, fmt.Errorf("watch: cursor %s is not an %s file; deleting it restarts from the first delta file and logs every alert again (at-least-once)", path, cursorMagic)
	case err != nil:
		return nil, Cursor{}, fmt.Errorf("watch: cursor %s: %w", path, err)
	case frames <= 1:
		return l, c, nil
	}
	if err := l.Close(); err != nil {
		return nil, Cursor{}, err
	}
	err = framelog.ReplaceFile(path, func(w io.Writer) error {
		_, err := w.Write(framelog.AppendFrame([]byte(cursorMagic), c.frame()))
		return err
	})
	if err == nil {
		l, err = framelog.Open(path, []byte(cursorMagic), nil)
	}
	if err != nil {
		return nil, Cursor{}, fmt.Errorf("watch: cursor %s: %w", path, err)
	}
	return l, c, nil
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
// alerts durably, advance the cursor. Build it with NewRunner.
type Runner struct {
	engine *Engine
	log    *AlertLog
	dir    string        // delta directory to tail
	cur    *framelog.Log // the open cursor file
	cursor Cursor

	// hook, when set, is called with a file's serial on Poll's stages:
	// stageMatched after the file's match, before its hand-off, and
	// stageCommit before its alerts are appended. Tests use it to hold
	// one stage while another runs; nil otherwise.
	hook func(stage string, serial uint32)
}

// NewRunner opens the cursor file at cursorPath (creating it if
// missing) and returns a runner that tails dir, matches through engine
// and appends to log, resuming after the cursor the file holds.
func NewRunner(engine *Engine, log *AlertLog, dir, cursorPath string) (*Runner, error) {
	cur, c, err := openCursor(cursorPath)
	if err != nil {
		return nil, err
	}
	return &Runner{engine: engine, log: log, dir: dir, cur: cur, cursor: c}, nil
}

// Cursor returns the runner's current in-memory cursor.
func (r *Runner) Cursor() Cursor { return r.cursor }

// Close closes the cursor file. The alert log is the caller's.
func (r *Runner) Close() error { return r.cur.Close() }

// pendingFiles lists delta files in Dir with serials above the cursor,
// in serial order.
func (r *Runner) pendingFiles() ([]string, error) {
	entries, err := os.ReadDir(r.dir)
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
		files = append(files, pf{serial, filepath.Join(r.dir, e.Name())})
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

// commitDelta appends a matched delta's alerts in event order, Syncs
// the log, then commits the cursor at the log's end. It returns the
// number of alerts appended.
func (r *Runner) commitDelta(serial uint32, alerts []*Alert) (int, error) {
	n := 0
	for _, a := range alerts {
		if a == nil {
			continue
		}
		if err := r.log.Append(*a); err != nil {
			return n, err
		}
		n++
	}
	// Durability barrier before the cursor moves: this ordering is the
	// at-least-once guarantee.
	if err := r.log.Sync(); err != nil {
		return n, err
	}
	return n, r.commit(Cursor{Serial: serial, LogOffset: r.log.Size()})
}

// commit appends c as one frame to the cursor file and Syncs it; only
// then does the in-memory cursor move, so it never passes the last
// durable frame.
func (r *Runner) commit(c Cursor) error {
	if _, err := r.cur.Append(c.frame()); err != nil {
		return err
	}
	if err := r.cur.Sync(); err != nil {
		return err
	}
	r.cursor = c
	return nil
}

// parsed is one lookahead result: a file's delta or its parse error.
type parsed struct {
	d   *Delta
	err error
}

// The stages Runner.hook names.
const (
	stageMatched = "matched"
	stageCommit  = "commit"
)

// matched is a file past the match stage: its serial and its alerts in
// event order (see Engine.match).
type matched struct {
	serial uint32
	alerts []*Alert
}

// Poll processes every pending delta file once, in serial order.
// Returns the number of files committed and the number of alerts they
// logged.
//
// A file passes three stages, each on its own goroutine: parse (a
// lookahead), match (Poll's own goroutine) and commit, which appends
// the file's alerts, Syncs the log and commits its cursor frame. While
// file n commits, file n+1 is matched and file n+2 parsed. Both
// hand-offs are unbuffered, so the match stage holds at most one file
// matched ahead of the commit, and the commit stage takes a file only
// once the previous one's cursor frame is durable: commits stay in
// serial order, and a cursor's LogOffset ends exactly at its serial's
// alerts. A commit error stops the commit stage, so no later file is
// handed to it; a parse error is returned only after every earlier
// file is committed. Cancellation has one point, before a file's match:
// a file whose match has started is matched, Synced and gets its cursor
// committed before Poll returns ctx.Err(). Poll returns only after all
// three stages have exited.
func (r *Runner) Poll(ctx context.Context) (files, alerts int, err error) {
	paths, err := r.pendingFiles()
	if err != nil || len(paths) == 0 {
		return 0, 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	ahead := make(chan parsed)
	parseDone := make(chan struct{})
	defer func() {
		cancel()
		<-parseDone
	}()
	go func() {
		defer close(parseDone)
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

	// The commit stage owns files, alerts and commitErr until it exits.
	toCommit := make(chan matched)
	commitDone := make(chan struct{})
	var commitErr error
	go func() {
		defer close(commitDone)
		for m := range toCommit {
			if r.hook != nil {
				r.hook(stageCommit, m.serial)
			}
			n, err := r.commitDelta(m.serial, m.alerts)
			alerts += n
			if err != nil {
				commitErr = err
				return
			}
			files++
		}
	}()

	var stageErr error // a parse or match error
	for next := range ahead {
		if ctx.Err() != nil {
			break
		}
		if next.err != nil {
			stageErr = next.err
			break
		}
		// A started file always finishes: the match runs without ctx's
		// cancellation, and its hand-off waits for the commit stage.
		found, err := r.engine.match(context.WithoutCancel(ctx), next.d)
		if err != nil {
			stageErr = err
			break
		}
		if r.hook != nil {
			r.hook(stageMatched, next.d.Serial)
		}
		if !handOff(toCommit, commitDone, matched{next.d.Serial, found}) {
			break
		}
	}
	close(toCommit)
	<-commitDone
	switch {
	case commitErr != nil:
		return files, alerts, commitErr
	case stageErr != nil:
		return files, alerts, stageErr
	}
	return files, alerts, ctx.Err()
}

// handOff passes m to the commit stage, or reports false once that
// stage has stopped on an error.
func handOff(toCommit chan<- matched, commitDone <-chan struct{}, m matched) bool {
	select {
	case toCommit <- m:
		return true
	case <-commitDone:
		return false
	}
}

// Run polls until the context is cancelled, sleeping interval between
// empty polls. A cancel takes effect between files: every file whose
// match has started is matched, Synced and its cursor committed before
// Run returns ctx.Err(), so the log never holds alerts past the cursor.
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
