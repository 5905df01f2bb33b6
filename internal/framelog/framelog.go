// Package framelog is the one durable-file discipline of the repository.
// The watch tier's alert log and cursor and the serving tier's verdict
// store keep acknowledged records in files of this shape:
//
//	header   MagicLen magic bytes, then whatever the caller adds
//	frame*   u32le payloadLen | u32le crc32c(payload) | payload
//
// and both replace small state files (peer watermarks, snapshot)
// through ReplaceFile. The package knows nothing about what a payload
// means.
//
// Commit protocol. Append copies a frame into the pending batch and
// returns; a single committer goroutine takes whatever has accumulated,
// writes it in one syscall and fsyncs once. While an fsync is in flight
// the next batch builds up, so batches grow with load and the fsync
// cost is shared. Sync returns once every frame appended before the
// call is on stable storage; nothing may be acknowledged to anyone
// before that. The first I/O error is sticky: Sync returns it, later
// Appends are refused, Close returns it.
//
// Crash behaviour. A crash between write and fsync can leave an
// incomplete or corrupt last frame. Such a frame was never covered by a
// Sync, so Open truncates the file at the first frame that does not
// check out and appending resumes there; Replay simply stops at it.
// Cursors are byte offsets: a frame is replayable iff its last byte is
// below Size.
//
// Rotation is Close (drains and fsyncs the pending batch) followed by
// Open of the next file; there is no in-place switch.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	// MagicLen is how many leading header bytes identify the file type.
	MagicLen = 8
	// FrameHeader is the per-frame overhead: u32le length + u32le CRC32C.
	FrameHeader = 8
	// MaxFrame bounds one payload; a larger length in a file is
	// corruption, not data, and scanning stops there.
	MaxFrame = 1 << 20
)

var (
	// ErrFrameSize rejects an empty or oversized payload at Append.
	ErrFrameSize = errors.New("framelog: payload empty or larger than MaxFrame")
	// ErrClosed rejects an Append after Close.
	ErrClosed = errors.New("framelog: log closed")
	// ErrMagic rejects a file whose header is not the caller's: a
	// foreign file, or one written in an older format.
	ErrMagic = errors.New("bad magic")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// syncDir makes a create or rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// frameHeader returns payload's frame header.
func frameHeader(payload []byte) (hdr [FrameHeader]byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	return hdr
}

// AppendFrame appends payload wrapped in its frame header to dst.
func AppendFrame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scan reads frames from r, which starts at file offset off, calling fn
// with each valid payload (only valid during the call) and the offset
// just past its frame. It returns the offset just past the last frame
// fn accepted. End of input, a torn frame and a corrupt frame all stop
// the scan without error; read failures and fn's error are returned.
func scan(r io.Reader, off int64, fn func(end int64, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [FrameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, readErr(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > MaxFrame {
			return off, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, readErr(err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return off, nil
		}
		end := off + FrameHeader + int64(n)
		if fn != nil {
			if err := fn(end, payload); err != nil {
				return off, err
			}
		}
		off = end
	}
}

// ReadFrames calls fn with each payload of data, a run of whole frames
// received from another process rather than read back from a file.
// Nothing there was torn by a crash, so where Replay stops cleanly,
// ReadFrames fails: on a bad length, a CRC mismatch, a frame cut short
// or bytes after the last frame. Payloads alias data.
func ReadFrames(data []byte, fn func(payload []byte) error) error {
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < FrameHeader {
			return fmt.Errorf("framelog: %d trailing bytes at offset %d", len(rest), off)
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > MaxFrame || int(n) > len(rest)-FrameHeader {
			return fmt.Errorf("framelog: frame at offset %d: length %d, %d bytes left", off, n, len(rest)-FrameHeader)
		}
		payload := rest[FrameHeader : FrameHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
			return fmt.Errorf("framelog: frame at offset %d: checksum mismatch", off)
		}
		if err := fn(payload); err != nil {
			return err
		}
		off += FrameHeader + int(n)
	}
	return nil
}

// readErr maps running out of bytes to a clean stop.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// readHeader reads a size-byte header from f and checks its magic.
func readHeader(f *os.File, magic []byte, size int) ([]byte, error) {
	hdr := make([]byte, size)
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr[:MagicLen]) != string(magic) {
		return nil, fmt.Errorf("framelog: %s: %w, want %q", f.Name(), ErrMagic, magic)
	}
	return hdr, nil
}

// Replay reads the frame file at path without modifying it. The file
// must start with a headerSize-byte header whose first MagicLen bytes
// are magic; the header is returned. Frames are read from byte offset
// from (anything inside the header means the first frame) up to limit
// bytes of the file (limit < 0: all of it — pass a log's Size to stay
// below a commit in flight), and fn gets each payload, valid only
// during the call, with the offset just past its frame: the cursor to
// persist for resuming after it. Scanning stops without error at the
// first torn or corrupt frame; the returned offset is where it stopped.
// A from beyond the file is an error: acknowledged frames are gone.
func Replay(path, magic string, headerSize int, from, limit int64, fn func(end int64, payload []byte) error) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	hdr, err := readHeader(f, []byte(magic), headerSize)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if limit < 0 || limit > info.Size() {
		limit = info.Size()
	}
	if from < int64(headerSize) {
		from = int64(headerSize)
	}
	if from > info.Size() {
		return nil, 0, fmt.Errorf("framelog: %s: offset %d past file size %d", path, from, info.Size())
	}
	end, err := scan(io.NewSectionReader(f, from, limit-from), from, fn)
	return hdr, end, err
}

// Stats is a point-in-time snapshot of a log's counters.
type Stats struct {
	Appended uint64 `json:"appended"` // frames enqueued
	Durable  uint64 `json:"durable"`  // frames on stable storage
	Commits  uint64 `json:"commits"`  // write+fsync batches issued
	MaxBatch int    `json:"maxBatch"` // largest frames-per-commit seen
	Size     int64  `json:"size"`     // durable file size in bytes
}

// AvgBatch reports the mean frames per commit.
func (s Stats) AvgBatch() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Durable) / float64(s.Commits)
}

// Log is an append-only frame file with group commit.
type Log struct {
	f      *os.File
	header []byte

	mu   sync.Mutex
	cond *sync.Cond

	pending  []byte // encoded frames awaiting commit
	pendingN int    // frame count in pending
	spare    []byte // recycled buffer for the next batch

	enqueued uint64
	durable  uint64
	size     int64 // durable file size (= replay cursor bound)
	end      int64 // size once everything enqueued is durable
	commits  uint64
	maxBatch int

	err     error // sticky I/O error; the log is dead once set
	closing bool
	done    chan struct{}
}

// Open opens the log at path for appending and starts its committer. A
// missing or empty file is created with header. An existing file must
// carry header's first MagicLen bytes and len(header) header bytes in
// all (Header returns what the file holds); its frames are scanned, fn
// (may be nil) sees each valid payload as in Replay, and the file is
// truncated at the first torn or corrupt frame. An error from fn — a
// payload that checks out but means nothing to the caller — fails Open
// and leaves the file as it was.
func Open(path string, header []byte, fn func(end int64, payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(header, fn); err != nil {
		f.Close()
		return nil, err
	}
	l.end = l.size
	go l.commitLoop()
	return l, nil
}

func (l *Log) recover(header []byte, fn func(end int64, payload []byte) error) error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		if _, err := l.f.Write(header); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.header = append([]byte(nil), header...)
		l.size = int64(len(header))
		return syncDir(filepath.Dir(l.f.Name()))
	}
	if l.header, err = readHeader(l.f, header[:MagicLen], len(header)); err != nil {
		return err
	}
	l.size, err = scan(l.f, int64(len(header)), fn)
	if err != nil {
		return err
	}
	if l.size < info.Size() {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	_, err = l.f.Seek(l.size, io.SeekStart)
	return err
}

// Header returns the file's header bytes.
func (l *Log) Header() []byte { return l.header }

// Append enqueues payload as one frame for the next group commit and
// returns the file offset just past it — Size once the frame is
// durable. It does not wait for durability; Sync is the barrier.
func (l *Log) Append(payload []byte) (int64, error) {
	if len(payload) == 0 || len(payload) > MaxFrame {
		return 0, ErrFrameSize
	}
	hdr := frameHeader(payload) // checksummed outside the lock
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closing {
		return 0, ErrClosed
	}
	if l.pending == nil && l.spare != nil {
		l.pending, l.spare = l.spare[:0], nil
	}
	l.pending = append(append(l.pending, hdr[:]...), payload...)
	l.pendingN++
	l.enqueued++
	l.end += FrameHeader + int64(len(payload))
	l.cond.Broadcast() // wake the committer
	return l.end, nil
}

// Sync blocks until every frame enqueued before the call is on stable
// storage, or the log has failed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.enqueued
	for l.durable < target && l.err == nil {
		l.cond.Wait()
	}
	return l.err
}

// Size returns the durable byte size — the replay cursor covering every
// acknowledged frame.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appended: l.enqueued,
		Durable:  l.durable,
		Commits:  l.commits,
		MaxBatch: l.maxBatch,
		Size:     l.size,
	}
}

// Err returns the sticky I/O error, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close commits the pending batch, stops the committer and closes the
// file. It returns the sticky error if the log failed; closing twice is
// safe.
func (l *Log) Close() error {
	l.mu.Lock()
	first := !l.closing
	l.closing = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	if first {
		cerr := l.f.Close()
		l.mu.Lock()
		if l.err == nil {
			l.err = cerr
		}
		l.mu.Unlock()
	}
	return l.Err()
}

// commitLoop is the single committer: it swaps out whatever frames have
// accumulated, writes them in one syscall, fsyncs, and publishes the
// new durable watermark. One fsync covers every frame in the batch.
func (l *Log) commitLoop() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for l.pendingN == 0 && !l.closing && l.err == nil {
			l.cond.Wait()
		}
		if l.err != nil || (l.closing && l.pendingN == 0) {
			l.mu.Unlock()
			return
		}
		buf, n := l.pending, l.pendingN
		l.pending, l.pendingN = nil, 0
		l.mu.Unlock()

		_, werr := l.f.Write(buf)
		if werr == nil {
			werr = l.f.Sync()
		}

		l.mu.Lock()
		if werr != nil {
			l.err = werr
		} else {
			l.size += int64(len(buf))
			l.durable += uint64(n)
			l.commits++
			if n > l.maxBatch {
				l.maxBatch = n
			}
			l.spare = buf[:0]
		}
		l.cond.Broadcast()
	}
}

// ReplaceFile atomically replaces path with what write produces: the
// bytes go to path+".tmp", which is fsynced, renamed over path, and the
// directory is fsynced so the rename itself survives a crash. On any
// failure the temp file is removed and the old path is untouched, so a
// reader sees the old complete file or the new complete one.
func ReplaceFile(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
