// Package vstore gives each worker's verdict-cache partition a durable
// life: an append-only warm log of committed verdicts plus periodic
// compacted snapshots, so a SIGKILLed worker reboots with its partition
// warm instead of stampeding the SSIM path cold. Compaction merges the
// store's own files, so a verdict stays durable after any cache evicts
// it.
//
// On-disk layout (one directory per node):
//
//	snapshot.vsnap    magic "IDNVSNP1" | u64le watermark | u32le count | frame*
//	wlog-<hex>.vlog   magic "IDNVLOG1" | u64le baseSeq | frame*
//	*.tmp             in-flight snapshot writes, deleted on open
//
// Frames, group commit, the Sync barrier, torn-tail truncation and the
// atomic snapshot replace are internal/framelog's (DESIGN.md "Durable
// files"); this package owns what the bytes mean. A frame payload is a
// u64le sequence number followed by the verdict encoded as an
// api.DetectResponse via the zero-alloc append codec — byte-identical
// to the wire form the worker serves — and read back with
// encoding/json. Replication and anti-entropy bodies are runs of these
// same frames (AppendFrame, Since, DecodeFrames): one encoder for
// serving, replication and durability.
//
// Sequence numbers are per-store, monotone, and assigned at Append.
// They order recovery (latest seq per key wins) and key the
// anti-entropy protocol: a rejoining worker asks peers for "everything
// since seq N" and N is meaningful because each store's log is a total
// order of its own commits.
//
// Append assigns a sequence number and enqueues; Sync() is the
// durability barrier. The crash-recovery tests cut the files at every
// interesting byte: a torn log tail is truncated on reopen, and a crash
// mid-snapshot leaves the old snapshot intact.
package vstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"idnlab/internal/api"
	"idnlab/internal/core"
	"idnlab/internal/framelog"
)

const (
	logMagic  = "IDNVLOG1"
	snapMagic = "IDNVSNP1"

	logHeaderSize  = 8 + 8 // magic + u64le baseSeq
	snapHeaderSize = 8 + 8 + 4
)

// Record is one committed verdict with its store-local sequence number.
// The verdict's Domain (normalized ACE) is the cache/partition key.
type Record struct {
	Seq     uint64
	Verdict core.Verdict
}

// Config parameterizes a Store. Only Dir is required.
type Config struct {
	// Dir is the store directory (created if missing).
	Dir string
	// CompactBytes triggers snapshot compaction when the active log
	// exceeds this size (default 8 MiB; < 0 disables compaction).
	CompactBytes int64
	// NoFsync turns every fsync into a no-op. Test-only: crash-recovery
	// and churn tests cycle through hundreds of throwaway stores where
	// physical durability is irrelevant. Production never sets it.
	NoFsync bool
}

func (c Config) withDefaults() Config {
	if c.CompactBytes == 0 {
		c.CompactBytes = 8 << 20
	}
	return c
}

// Stats is the store's /metrics contribution.
type Stats struct {
	Loaded          bool   `json:"loaded"`
	Dir             string `json:"dir,omitempty"`
	Seq             uint64 `json:"seq"`
	DurableSeq      uint64 `json:"durableSeq"`
	Appends         uint64 `json:"appends"`
	Commits         uint64 `json:"commits"`
	MaxBatch        int    `json:"maxBatch"`
	LogBytes        int64  `json:"logBytes"`
	WarmBootEntries int    `json:"warmBootEntries"`
	Snapshots       uint64 `json:"snapshots"`
	SnapshotSeq     uint64 `json:"snapshotSeq"`
	SnapshotEntries int    `json:"snapshotEntries"`
	CompactErrors   uint64 `json:"compactErrors"`
	EncodeErrors    uint64 `json:"encodeErrors"`
	LastError       string `json:"lastError,omitempty"`
}

// appendRecord encodes (seq, verdict) as a frame payload.
func appendRecord(dst []byte, seq uint64, v core.Verdict) ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	dst = append(dst, b[:]...)
	resp := api.DetectResponse{Verdict: v, Flagged: v.Flagged()}
	return api.AppendDetectResponse(dst, &resp)
}

// decodeRecord parses a frame payload produced by appendRecord. A
// response that carries an error is not a verdict, and is refused.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < 9 {
		return Record{}, fmt.Errorf("vstore: record payload %d bytes, want >= 9", len(payload))
	}
	seq := binary.LittleEndian.Uint64(payload)
	var resp api.DetectResponse
	err := json.Unmarshal(payload[8:], &resp)
	if err == nil && resp.Error != "" {
		err = fmt.Errorf("error response %q", resp.Error)
	}
	if err != nil {
		return Record{}, fmt.Errorf("vstore: record seq %d: %w", seq, err)
	}
	return Record{Seq: seq, Verdict: resp.Verdict}, nil
}

// AppendFrame appends record (seq, v) to dst as the frame the store's
// files hold for it: the unit both node-to-node store bodies carry.
func AppendFrame(dst []byte, seq uint64, v core.Verdict) ([]byte, error) {
	payload, err := appendRecord(nil, seq, v)
	if err != nil {
		return dst, err
	}
	return framelog.AppendFrame(dst, payload), nil
}

// DecodeFrames decodes a run of record frames from another node
// (AppendFrame, Since). A frame that fails its CRC or is cut short,
// bytes after the last frame and a payload that is not a record each
// refuse the whole body: on an error, recs must not be used.
func DecodeFrames(body []byte) (recs []Record, err error) {
	err = framelog.ReadFrames(body, func(payload []byte) error {
		r, err := decodeRecord(payload)
		recs = append(recs, r)
		return err
	})
	return recs, err
}
