package watch

import (
	"encoding/json"
	"fmt"

	"idnlab/internal/framelog"
)

// Alert is one confirmed finding pushed to subscribers: a changed name
// that imitates a watched brand. (Serial, Domain) is the dedup key —
// the stream applies each delta serial to each name at most once, so a
// consumer replaying after a crash detects duplicates by remembering
// the keys it has already delivered.
type Alert struct {
	Serial  uint32  `json:"serial"`
	Op      string  `json:"op"`
	Domain  string  `json:"domain"` // ACE FQDN, e.g. "xn--pple-43d.com"
	Unicode string  `json:"unicode"`
	Brand   string  `json:"brand"`
	SSIM    float64 `json:"ssim"`
	Subs    int     `json:"subs"` // subscriber count at match time
}

// Key returns the at-least-once dedup key.
func (a Alert) Key() string { return fmt.Sprintf("%d/%s", a.Serial, a.Domain) }

// The alert log is a framelog file (see that package for the frame
// layout, group commit, Sync barrier and torn-tail recovery) whose
// header is the bare magic and whose payloads are JSON Alerts. Cursors
// are plain byte offsets: a frame is replayable iff its last byte is
// below the durable size.
const logMagic = "IDNALOG1"

// AlertLogStats is a point-in-time snapshot of the log's counters.
type AlertLogStats = framelog.Stats

// AlertLog is a durable append-only alert sink with group commit.
type AlertLog struct{ log *framelog.Log }

// OpenAlertLog opens (or creates) the log at path, verifies the magic,
// truncates any torn tail frame left by a crash mid-commit, and starts
// the committer. The returned log's Size() is the recovered durable
// offset.
func OpenAlertLog(path string) (*AlertLog, error) {
	log, err := framelog.Open(path, []byte(logMagic), nil)
	if err != nil {
		return nil, fmt.Errorf("watch: alert log: %w", err)
	}
	return &AlertLog{log: log}, nil
}

// Append encodes a and enqueues it for the next group commit. It
// returns once the frame is queued, not once it is durable — call
// Sync() before acting on durability (advancing an input cursor,
// acknowledging upstream).
func (l *AlertLog) Append(a Alert) error {
	payload, err := json.Marshal(a)
	if err != nil {
		return err
	}
	_, err = l.log.Append(payload)
	return err
}

// Sync blocks until every frame enqueued before the call is on stable
// storage (or the log has failed). This is the durability barrier the
// daemon issues before advancing its input cursor: alerts first, cursor
// second, which is exactly what makes delivery at-least-once.
func (l *AlertLog) Sync() error { return l.log.Sync() }

// Size returns the durable byte size — the replay cursor covering every
// acknowledged alert.
func (l *AlertLog) Size() int64 { return l.log.Size() }

// Stats snapshots the log's counters.
func (l *AlertLog) Stats() AlertLogStats { return l.log.Stats() }

// Close drains pending frames, stops the committer and closes the file.
func (l *AlertLog) Close() error { return l.log.Close() }

// ReplayAlertLog reads alerts from path starting at byte offset from
// (offsets below the magic are clamped to the first frame) and calls fn
// with each alert and the offset just past its frame — the cursor to
// persist for resuming after that alert. Scanning stops without error
// at the first torn or corrupt frame (an unacknowledged tail); I/O
// failures, a bad magic and a cursor past the end of the file (which
// means acknowledged alerts are gone) are errors. Returns the offset
// scanning stopped at.
func ReplayAlertLog(path string, from int64, fn func(off int64, a Alert) error) (int64, error) {
	_, end, err := framelog.Replay(path, logMagic, len(logMagic), from, -1, func(end int64, payload []byte) error {
		var a Alert
		if err := json.Unmarshal(payload, &a); err != nil {
			return fmt.Errorf("watch: frame ending at %d: checksum ok but payload invalid: %w", end, err)
		}
		return fn(end, a)
	})
	return end, err
}
