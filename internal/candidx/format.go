package candidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"idnlab/internal/brands"
	"idnlab/internal/framelog"
	"idnlab/internal/simchar"
)

// Index file format (version 1), all fields little-endian:
//
//	offset size
//	0      8    magic "IDNCIDX1"
//	8      8    simchar derivation fingerprint
//	16     8    detection threshold (float64 bits, = SSIMThreshold)
//	24     4    brandCount
//	28     4    slotCount (power of two)
//	32     4    hardCount
//	36     4    pairCount
//	40     4    brandsLen
//	44     4    keysLen
//	48     4    entriesLen
//	52     4    foldLen (= len(simchar.Bases))
//	56     …    fold map         (foldLen bytes)
//	…      …    brands blob      (brandsLen bytes)
//	…      …    hard list        (hardCount × 4)
//	…      …    pair registry    (pairCount × 3: keyLen, i, j)
//	…      …    slot table       (slotCount × 8: keyRef, entOff)
//	…      …    keys blob        (keysLen bytes)
//	…      …    entries blob     (entriesLen bytes)
//	end-8  8    FNV-1a checksum over every preceding byte
//
// Fold map: one byte per simchar base (in simchar.Bases order) giving
// the base's index fold class representative — bases whose glyphs are so
// alike that the builder collapsed them into one skeleton symbol. The
// map must be idempotent (a representative maps to itself) and is
// applied identically at build and lookup time, so it travels with the
// file. Brands blob: brandCount records of (u16 domainLen, domain bytes,
// u32 rank). Keys blob: records of (u8 keyLen, key bytes); keys are
// brand-label skeletons over the fold-class alphabet with up to two
// positions replaced by the hole byte 0xFF (never a valid UTF-8 or
// skeleton byte). Entries blob: records of (u16 count, count × u32
// ascending brand IDs). A slot's keyRef is the key record offset plus
// one (zero marks an empty slot); entOff is the entry record offset.
//
// The checksum, magic and section bounds are all verified at load; the
// loaded index reads straight out of the (immutable) byte slice with no
// deserialization pass over keys or entries. An index compiled for
// another threshold is refused, naming both values.

const (
	magic      = "IDNCIDX1"
	headerSize = 56
	// HoleByte is the wildcard byte in index keys. It is not a valid
	// UTF-8 byte, so no label skeleton can contain it.
	HoleByte = 0xFF
	// MaxKeyLen bounds key length (DNS labels are at most 63 octets, so
	// no skeleton exceeds 63 cells).
	MaxKeyLen = 63
)

// Load errors. Decoding never panics on hostile input; every malformed
// region maps to one of these.
var (
	ErrMagic       = errors.New("candidx: bad magic or version")
	ErrTruncated   = errors.New("candidx: truncated index")
	ErrChecksum    = errors.New("candidx: checksum mismatch")
	ErrCorrupt     = errors.New("candidx: structurally invalid index")
	ErrFingerprint = errors.New("candidx: index derived from a different glyph design")
)

// Index is a loaded (or freshly built) candidate index. All exported
// methods are safe for concurrent use; the hit counters are atomic.
type Index struct {
	data    []byte // full serialized image (including checksum)
	slots   []byte
	keys    []byte
	entries []byte
	mask    uint32

	brandList  []brands.Brand
	brandLens  []int // rune count of each brand label
	hard       []uint32
	pairsByLen [][][2]uint8 // indexed by key length
	ixFold     [256]byte    // base byte -> fold class (identity elsewhere)

	fingerprint uint64
	table       *simchar.Table

	lookups atomic.Uint64
	hits    atomic.Uint64
}

// Bytes returns the serialized index image. The slice is the live
// backing store; callers must not modify it.
func (ix *Index) Bytes() []byte { return ix.data }

// Brands returns the brand catalog the index was compiled from, in brand
// ID order. The slice is shared and must not be modified.
func (ix *Index) Brands() []brands.Brand { return ix.brandList }

// Fingerprint returns the simchar derivation fingerprint embedded at
// build time.
func (ix *Index) Fingerprint() uint64 { return ix.fingerprint }

// Hard returns the brand IDs on the always-rescore hard list.
func (ix *Index) Hard() []uint32 { return ix.hard }

// Stats returns the cumulative lookup and hit counters (a hit is a
// lookup that produced at least one candidate).
func (ix *Index) Stats() (lookups, hits uint64) {
	return ix.lookups.Load(), ix.hits.Load()
}

// KeyCount returns the number of distinct keys in the index.
func (ix *Index) KeyCount() int {
	n := 0
	for off := 0; off < len(ix.keys); {
		n++
		off += 1 + int(ix.keys[off])
	}
	return n
}

// FoldClasses returns the index's merged fold classes: each group lists
// the base bytes the builder collapsed into one skeleton symbol (first
// element is the representative). Singleton classes are omitted.
func (ix *Index) FoldClasses() [][]byte {
	groups := make(map[byte][]byte)
	for _, r := range simchar.Bases {
		b := byte(r)
		rep := ix.ixFold[b]
		groups[rep] = append(groups[rep], b)
	}
	var out [][]byte
	for _, r := range simchar.Bases {
		b := byte(r)
		if g, ok := groups[b]; ok && len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// Load parses a serialized index. The data slice is retained and read
// zero-copy; it must not be modified afterwards. Load verifies the
// checksum, every section bound, that the embedded threshold is
// SSIMThreshold, and that the embedded derivation fingerprint matches the
// running simchar table — an index built against a different threshold
// or glyph design is rejected rather than silently misused.
func Load(data []byte) (*Index, error) {
	return load(data, simchar.Default())
}

// load is Load with an explicit table (tests exercise fingerprint
// mismatches without forging files).
func load(data []byte, table *simchar.Table) (*Index, error) {
	if len(data) < headerSize+8 {
		return nil, ErrTruncated
	}
	if string(data[:8]) != magic {
		return nil, ErrMagic
	}
	want := binary.LittleEndian.Uint64(data[len(data)-8:])
	if simchar.HashBytes(0, data[:len(data)-8]) != want {
		return nil, ErrChecksum
	}
	fp := binary.LittleEndian.Uint64(data[8:])
	thr := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	brandCount := binary.LittleEndian.Uint32(data[24:])
	slotCount := binary.LittleEndian.Uint32(data[28:])
	hardCount := binary.LittleEndian.Uint32(data[32:])
	pairCount := binary.LittleEndian.Uint32(data[36:])
	brandsLen := binary.LittleEndian.Uint32(data[40:])
	keysLen := binary.LittleEndian.Uint32(data[44:])
	entriesLen := binary.LittleEndian.Uint32(data[48:])
	foldLen := binary.LittleEndian.Uint32(data[52:])

	if slotCount == 0 || slotCount&(slotCount-1) != 0 {
		return nil, ErrCorrupt
	}
	if thr != SSIMThreshold { // also rejects NaN
		return nil, fmt.Errorf("candidx: index compiled for SSIM threshold %g, detection runs at %g", thr, SSIMThreshold)
	}
	if int(foldLen) != len(simchar.Bases) {
		return nil, ErrCorrupt
	}
	// Section bounds, computed without overflow: every count is u32 and
	// multiplied into an int64 domain before comparison.
	need := int64(headerSize) + int64(foldLen) + int64(brandsLen) + int64(hardCount)*4 +
		int64(pairCount)*3 + int64(slotCount)*8 + int64(keysLen) +
		int64(entriesLen) + 8
	if int64(len(data)) != need {
		return nil, ErrTruncated
	}

	ix := &Index{
		data:        data,
		mask:        slotCount - 1,
		fingerprint: fp,
		table:       table,
	}

	off := headerSize
	foldBlob := data[off : off+int(foldLen)]
	off += int(foldLen)
	// Fold map: every target must itself be a base, and the map must be
	// idempotent (class representatives map to themselves).
	for i := range ix.ixFold {
		ix.ixFold[i] = byte(i)
	}
	for i := 0; i < len(simchar.Bases); i++ {
		if !isBase(foldBlob[i]) {
			return nil, ErrCorrupt
		}
		ix.ixFold[simchar.Bases[i]] = foldBlob[i]
	}
	for i := 0; i < len(simchar.Bases); i++ {
		b := simchar.Bases[i]
		if ix.ixFold[ix.ixFold[b]] != ix.ixFold[b] {
			return nil, ErrCorrupt
		}
	}

	brandsBlob := data[off : off+int(brandsLen)]
	off += int(brandsLen)
	hardBlob := data[off : off+int(hardCount)*4]
	off += int(hardCount) * 4
	pairBlob := data[off : off+int(pairCount)*3]
	off += int(pairCount) * 3
	ix.slots = data[off : off+int(slotCount)*8]
	off += int(slotCount) * 8
	ix.keys = data[off : off+int(keysLen)]
	off += int(keysLen)
	ix.entries = data[off : off+int(entriesLen)]

	// Brands: decoded once into the in-memory catalog.
	ix.brandList = make([]brands.Brand, 0, brandCount)
	ix.brandLens = make([]int, 0, brandCount)
	p := 0
	for i := uint32(0); i < brandCount; i++ {
		if p+2 > len(brandsBlob) {
			return nil, ErrCorrupt
		}
		dl := int(binary.LittleEndian.Uint16(brandsBlob[p:]))
		p += 2
		if p+dl+4 > len(brandsBlob) {
			return nil, ErrCorrupt
		}
		b := brands.Brand{
			Domain: string(brandsBlob[p : p+dl]),
			Rank:   int(binary.LittleEndian.Uint32(brandsBlob[p+dl:])),
		}
		p += dl + 4
		ix.brandList = append(ix.brandList, b)
		ix.brandLens = append(ix.brandLens, runeLen(b.Label()))
	}
	if p != len(brandsBlob) {
		return nil, ErrCorrupt
	}

	// Hard list: in-range ascending brand IDs.
	ix.hard = make([]uint32, hardCount)
	for i := range ix.hard {
		id := binary.LittleEndian.Uint32(hardBlob[i*4:])
		if id >= brandCount || (i > 0 && id <= ix.hard[i-1]) {
			return nil, ErrCorrupt
		}
		ix.hard[i] = id
	}

	// Pair registry, re-keyed by length for the prober.
	ix.pairsByLen = make([][][2]uint8, MaxKeyLen+1)
	for i := uint32(0); i < pairCount; i++ {
		kl, pi, pj := pairBlob[i*3], pairBlob[i*3+1], pairBlob[i*3+2]
		if kl == 0 || kl > MaxKeyLen || pi >= pj || int(pj) >= int(kl) {
			return nil, ErrCorrupt
		}
		ix.pairsByLen[kl] = append(ix.pairsByLen[kl], [2]uint8{pi, pj})
	}

	// Structural validation of the slot table: every non-empty slot must
	// reference an in-bounds, well-formed key and entry record, keys must
	// be unique, and entry IDs in range and ascending. This is a single
	// linear pass; after it, lookups can trust the data blindly.
	seenKeys := 0
	for s := uint32(0); s <= ix.mask; s++ {
		keyRef := binary.LittleEndian.Uint32(ix.slots[s*8:])
		entOff := binary.LittleEndian.Uint32(ix.slots[s*8+4:])
		if keyRef == 0 {
			continue
		}
		ko := int(keyRef - 1)
		if ko >= len(ix.keys) {
			return nil, ErrCorrupt
		}
		kl := int(ix.keys[ko])
		if kl == 0 || kl > MaxKeyLen || ko+1+kl > len(ix.keys) {
			return nil, ErrCorrupt
		}
		eo := int(entOff)
		if eo+2 > len(ix.entries) {
			return nil, ErrCorrupt
		}
		cnt := int(binary.LittleEndian.Uint16(ix.entries[eo:]))
		if cnt == 0 || eo+2+cnt*4 > len(ix.entries) {
			return nil, ErrCorrupt
		}
		prev := int64(-1)
		for j := 0; j < cnt; j++ {
			id := binary.LittleEndian.Uint32(ix.entries[eo+2+j*4:])
			if id >= brandCount || int64(id) <= prev {
				return nil, ErrCorrupt
			}
			prev = int64(id)
		}
		// The key must be findable at its hashed home via linear probing
		// through non-empty slots; since we scan every slot anyway, it is
		// enough to check that probing for this key terminates on it.
		if !ix.probeFinds(ix.keys[ko+1:ko+1+kl], s) {
			return nil, ErrCorrupt
		}
		seenKeys++
	}
	if seenKeys > 0 && len(ix.keys) == 0 {
		return nil, ErrCorrupt
	}

	if table != nil && fp != table.Fingerprint() {
		return nil, ErrFingerprint
	}
	return ix, nil
}

// probeFinds reports whether linear probing for key lands on slot want
// before hitting an empty slot.
func (ix *Index) probeFinds(key []byte, want uint32) bool {
	h := uint32(simchar.HashBytes(0, key))
	for i := uint32(0); i <= ix.mask; i++ {
		s := (h + i) & ix.mask
		keyRef := binary.LittleEndian.Uint32(ix.slots[s*8:])
		if keyRef == 0 {
			return false
		}
		if s == want {
			return true
		}
	}
	return false
}

// LoadFile reads and parses an index file.
func LoadFile(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// WriteFile serializes the index to path durably (framelog.ReplaceFile:
// temp file, fsync, rename, directory fsync), so a crash leaves either
// the old file or the complete new one.
func (ix *Index) WriteFile(path string) error {
	return framelog.ReplaceFile(path, func(w io.Writer) error {
		_, err := w.Write(ix.data)
		return err
	})
}

// isBase reports whether b is a simchar base byte.
func isBase(b byte) bool {
	for i := 0; i < len(simchar.Bases); i++ {
		if simchar.Bases[i] == b {
			return true
		}
	}
	return false
}

// runeLen is utf8.RuneCountInString without the import knot.
func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}
