package feat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"idnlab/internal/framelog"
	"idnlab/internal/simchar"
)

// IDNSTAT1 — the serialized statistical model. Like the candidate
// index's IDNCIDX1, the format is designed for zero-copy loading: Load
// validates the blob structurally once, then the scoring hot path reads
// the bigram key/value sections directly from the mapped bytes with no
// decode pass and no per-lookup allocation.
//
// Layout (all integers little-endian, all floats IEEE-754 bits):
//
//	offset 0   magic "IDNSTAT1" (8 bytes)
//	       8   seed          u64  training seed
//	      16   numFeatures   u32  must equal NumFeatures
//	      20   tldClasses    u32  must equal NumTLDClasses
//	      24   bigramCount   u32  interned bigram table size
//	      28   reserved      u32  zero
//	      32   bias          f64
//	      40   flagRaw       f64  raw-margin flag threshold
//	      48   prefilterRaw  f64  raw-margin prefilter floor
//	      56   weights       numFeatures × f64
//	       .   tldPriors     tldClasses × f64
//	       .   bigramKeys    bigramCount × u64, strictly ascending
//	       .   bigramVals    bigramCount × f64, finite
//	    tail   checksum      u64  FNV-1a (simchar.HashBytes) of all prior bytes
const magic = "IDNSTAT1"

const headerSize = 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8

// Load errors. Load validates exhaustively so the scoring path can
// trust the data blindly.
var (
	ErrMagic     = errors.New("feat: not an IDNSTAT1 model")
	ErrTruncated = errors.New("feat: truncated model")
	ErrChecksum  = errors.New("feat: checksum mismatch")
	ErrCorrupt   = errors.New("feat: structurally invalid model")
)

// modelParams is the in-memory form the trainer produces; encode turns
// it into the canonical blob and Load back into a servable Model, so
// every Model — trained in process or loaded from disk — scores through
// the identical zero-copy path.
type modelParams struct {
	seed         uint64
	bias         float64
	flagRaw      float64
	prefilterRaw float64
	weights      [NumFeatures]float64
	tldPrior     [NumTLDClasses]float64
	bigramKeys   []uint64 // strictly ascending
	bigramVals   []float64
}

// encode serializes params into a fresh IDNSTAT1 blob.
func encode(p modelParams) []byte {
	n := len(p.bigramKeys)
	size := headerSize + 8*NumFeatures + 8*NumTLDClasses + 16*n + 8
	buf := make([]byte, size)
	copy(buf, magic)
	le := binary.LittleEndian
	le.PutUint64(buf[8:], p.seed)
	le.PutUint32(buf[16:], NumFeatures)
	le.PutUint32(buf[20:], NumTLDClasses)
	le.PutUint32(buf[24:], uint32(n))
	le.PutUint32(buf[28:], 0)
	le.PutUint64(buf[32:], math.Float64bits(p.bias))
	le.PutUint64(buf[40:], math.Float64bits(p.flagRaw))
	le.PutUint64(buf[48:], math.Float64bits(p.prefilterRaw))
	off := headerSize
	for _, w := range p.weights {
		le.PutUint64(buf[off:], math.Float64bits(w))
		off += 8
	}
	for _, w := range p.tldPrior {
		le.PutUint64(buf[off:], math.Float64bits(w))
		off += 8
	}
	for _, k := range p.bigramKeys {
		le.PutUint64(buf[off:], k)
		off += 8
	}
	for _, v := range p.bigramVals {
		le.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	le.PutUint64(buf[off:], simchar.HashBytes(0, buf[:off]))
	return buf
}

// Load parses and validates an IDNSTAT1 blob. The returned Model
// retains data; callers must not mutate it afterwards.
func Load(data []byte) (*Model, error) {
	if len(data) < headerSize+8 {
		return nil, ErrTruncated
	}
	if string(data[:8]) != magic {
		return nil, ErrMagic
	}
	le := binary.LittleEndian
	if got, want := le.Uint64(data[len(data)-8:]), simchar.HashBytes(0, data[:len(data)-8]); got != want {
		return nil, fmt.Errorf("%w: recorded %016x computed %016x", ErrChecksum, got, want)
	}
	nf := int(le.Uint32(data[16:]))
	tc := int(le.Uint32(data[20:]))
	nb := int(le.Uint32(data[24:]))
	if nf != NumFeatures {
		return nil, fmt.Errorf("%w: model has %d features, this build scores %d", ErrCorrupt, nf, NumFeatures)
	}
	if tc != NumTLDClasses {
		return nil, fmt.Errorf("%w: model has %d TLD classes, this build scores %d", ErrCorrupt, tc, NumTLDClasses)
	}
	if le.Uint32(data[28:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved field", ErrCorrupt)
	}
	// Section bounds in int64 space so a hostile count cannot overflow.
	want := int64(headerSize) + 8*int64(nf) + 8*int64(tc) + 16*int64(nb) + 8
	if int64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d bytes, layout requires %d", ErrTruncated, len(data), want)
	}
	m := &Model{
		data:     data,
		seed:     le.Uint64(data[8:]),
		bias:     math.Float64frombits(le.Uint64(data[32:])),
		flagRaw:  math.Float64frombits(le.Uint64(data[40:])),
		nBigrams: nb,
	}
	m.prefilterRaw = math.Float64frombits(le.Uint64(data[48:]))
	if !finite(m.bias) || !finite(m.flagRaw) || !finite(m.prefilterRaw) {
		return nil, fmt.Errorf("%w: non-finite bias or threshold", ErrCorrupt)
	}
	off := headerSize
	for i := 0; i < NumFeatures; i++ {
		m.weights[i] = math.Float64frombits(le.Uint64(data[off:]))
		if !finite(m.weights[i]) {
			return nil, fmt.Errorf("%w: non-finite weight %q", ErrCorrupt, FeatureNames[i])
		}
		off += 8
	}
	for i := 0; i < NumTLDClasses; i++ {
		m.tldPrior[i] = math.Float64frombits(le.Uint64(data[off:]))
		if !finite(m.tldPrior[i]) {
			return nil, fmt.Errorf("%w: non-finite TLD prior %d", ErrCorrupt, i)
		}
		off += 8
	}
	m.keyOff = off
	m.valOff = off + 8*nb
	// The validation walk doubles as the decode pass: ASCII×ASCII pairs
	// populate the dense plane the hot path indexes directly, everything
	// else lands in an open-addressing hash table sized to ≤50% load
	// (keys are unique by the ascending check, so insertion never needs
	// duplicate handling; key 0 is impossible and marks empty slots).
	m.ascii = make([]float64, asciiPlane*asciiPlane)
	if nb > 0 {
		htSize := 1
		for htSize < 2*nb {
			htSize <<= 1
		}
		m.htKeys = make([]uint64, htSize)
		m.htVals = make([]float64, htSize)
		m.htMask = uint64(htSize - 1)
	}
	var prev uint64
	for i := 0; i < nb; i++ {
		k := le.Uint64(data[m.keyOff+8*i:])
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("%w: bigram keys not strictly ascending at %d", ErrCorrupt, i)
		}
		prev = k
		v := math.Float64frombits(le.Uint64(data[m.valOff+8*i:]))
		if !finite(v) {
			return nil, fmt.Errorf("%w: non-finite bigram log-odds at %d", ErrCorrupt, i)
		}
		if a, b := k>>32, k&0xffffffff; a < asciiPlane && b < asciiPlane {
			m.ascii[a*asciiPlane+b] = v
		} else {
			j := (k * fibMult) >> 32 & m.htMask
			for m.htKeys[j] != 0 {
				j = (j + 1) & m.htMask
			}
			m.htKeys[j], m.htVals[j] = k, v
		}
	}
	return m, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// LoadFile reads and validates a model file.
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("feat: read %s: %w", path, err)
	}
	m, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteFile writes the model blob to path durably (framelog.ReplaceFile:
// temp file, fsync, rename, directory fsync), so a crash leaves either
// the old file or the complete new one.
func (m *Model) WriteFile(path string) error {
	err := framelog.ReplaceFile(path, func(w io.Writer) error {
		_, err := w.Write(m.data)
		return err
	})
	if err != nil {
		return fmt.Errorf("feat: write %s: %w", path, err)
	}
	return nil
}
