package candidx

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"idnlab/internal/brands"
	"idnlab/internal/simchar"
)

// SSIMThreshold is the homograph detection threshold in this renderer's
// SSIM space, the one the index is compiled for and the detector applies.
// The paper used 0.95 with its anti-aliased rendering; with our pixel
// typeface, single-diacritic homographs score ≥0.985 and unrelated
// single-letter swaps fall at 0.96-0.98 (see the Table XII reproduction),
// so 0.98 cuts the band at the same semantic point the paper's 0.95 did.
// The value is embedded in every index file and Load refuses any other.
const SSIMThreshold = 0.98

// Emission margins. Raw deficits of substitutions at positions at least
// two cells apart add exactly (their SSIM window bands are disjoint), so
// the budget comparison is sharp there; marginFactor keeps headroom for
// float noise and mild interactions, and adjFactor discounts runs of
// consecutive positions, whose bands overlap and whose joint penalty can
// undercut the sum of the marginals. The discount is calibrated against
// exact joint renders of the cheapest adjacent substitution pairs and
// triples, whose worst observed joint-to-sum ratio is 0.944; 0.85 keeps
// a real margin under that.
const (
	marginFactor = 1.3
	adjFactor    = 0.85
)

// BuildOptions parameterizes Build. It has no fields: every build
// expands through simchar.Default().
type BuildOptions struct{}

// Build compiles a brand catalog into a candidate index. The same
// catalog and derivation always produce byte-identical output
// (every traversal below is explicitly ordered), which is what makes
// `idnindex verify` a simple rebuild-and-compare.
//
// Per brand, the expansion emits the skeleton key, one single-hole key
// per position, double-hole keys for position pairs whose combined
// minimum off-family penalty fits the (margined) budget, and — when the
// one-rune-shorter comparison's blank-cell penalty fits — the same
// family of keys over the length-minus-one prefix. Brands where three
// simultaneous off-family substitutions could fit the budget go on the
// hard list and are rescored on every lookup instead.
func Build(list []brands.Brand, _ BuildOptions) (*Index, error) {
	table := simchar.Default()
	if len(list) > math.MaxUint16 {
		// Entry records carry a u16 ID count, so a single key can hold at
		// most 65535 brands; bounding the catalog at the same limit keeps
		// the format trivially safe.
		return nil, fmt.Errorf("candidx: brand catalog too large (%d > %d)", len(list), math.MaxUint16)
	}

	an := newAnalyzer(table)
	keyed := make(map[string][]uint32)
	addKey := func(key []byte, id uint32) {
		k := string(key)
		ids := keyed[k]
		if len(ids) > 0 && ids[len(ids)-1] == id {
			return
		}
		keyed[k] = append(ids, id)
	}
	pairSet := make(map[[3]uint8]struct{})
	hardSet := make(map[uint32]struct{})

	keyBuf := make([]byte, 0, MaxKeyLen)
	keySkel := make([]byte, 0, MaxKeyLen)
	for id := 0; id < len(list); id++ {
		label := list[id].Label()
		skel := foldSkeleton(table, label)
		if skel == nil || len(skel) > MaxKeyLen {
			// Unfoldable or oversized label: not expressible in key
			// space, so the brand is rescored on every lookup.
			hardSet[uint32(id)] = struct{}{}
			continue
		}
		m := len(skel)
		// The analysis works on the raw skeleton (the actual glyphs the
		// brand renders); keys use the index fold classes, which absorb
		// the ultra-cheap cross-base confusions the analysis would
		// otherwise have to price.
		ba := an.analyze(skel, SSIMThreshold)
		budget := ba.budget * marginFactor
		keySkel = keySkel[:0]
		for _, b := range skel {
			keySkel = append(keySkel, an.classOf(b))
		}

		addKey(keySkel, uint32(id))
		for i := 0; i < m; i++ {
			keyBuf = append(keyBuf[:0], keySkel...)
			keyBuf[i] = HoleByte
			addKey(keyBuf, uint32(id))
		}
		for i := 0; i < m-1; i++ {
			for j := i + 1; j < m; j++ {
				if pairCost(ba.minOff, i, j) > budget {
					continue
				}
				keyBuf = append(keyBuf[:0], keySkel...)
				keyBuf[i], keyBuf[j] = HoleByte, HoleByte
				addKey(keyBuf, uint32(id))
				pairSet[[3]uint8{uint8(m), uint8(i), uint8(j)}] = struct{}{}
			}
		}

		// Padded class: label one rune shorter than the brand. The blank
		// last cell costs ba.blank on top of any substitutions.
		if m >= 2 && ba.blank >= 0 && ba.blank <= budget {
			addKey(keySkel[:m-1], uint32(id))
			for i := 0; i < m-1; i++ {
				cost := ba.blank + ba.minOff[i]
				if i == m-2 {
					cost *= adjFactor
				}
				if cost > budget {
					continue
				}
				keyBuf = append(keyBuf[:0], keySkel[:m-1]...)
				keyBuf[i] = HoleByte
				addKey(keyBuf, uint32(id))
			}
		}

		if hardBrand(ba, budget) {
			hardSet[uint32(id)] = struct{}{}
		}
	}

	data := serialize(list, table.Fingerprint(), an.foldTable(), keyed, pairSet, hardSet)
	ix, err := load(data, table)
	if err != nil {
		return nil, fmt.Errorf("candidx: self-validation failed: %w", err)
	}
	return ix, nil
}

// foldSkeleton folds a brand label into its pure-ASCII skeleton, or nil
// when a rune does not fold.
func foldSkeleton(table *simchar.Table, label string) []byte {
	out := make([]byte, 0, len(label))
	for _, r := range label {
		b, ok := table.Fold(r)
		if !ok {
			return nil
		}
		out = append(out, b)
	}
	return out
}

// comboCost lower-bounds the joint raw deficit of penalty items at
// ascending positions: items two or more cells apart add exactly
// (disjoint window bands), and each run of consecutive positions is
// discounted once by adjFactor.
func comboCost(pos []int, cost []float64) float64 {
	total := 0.0
	for i := 0; i < len(pos); {
		j := i + 1
		run := cost[i]
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			run += cost[j]
			j++
		}
		if j-i > 1 {
			run *= adjFactor
		}
		total += run
		i = j
	}
	return total
}

// pairCost is the conservative combined penalty of off-class
// substitutions at positions i < j.
func pairCost(minOff []float64, i, j int) float64 {
	c := minOff[i] + minOff[j]
	if j == i+1 {
		c *= adjFactor
	}
	return c
}

// hardBrand reports whether three simultaneous substitutions (or the
// padded comparison plus two) could fit the budget, in which case no
// bounded key set covers the brand and it must always be rescored.
func hardBrand(ba brandAnalysis, budget float64) bool {
	m := len(ba.minOff)
	if m < 3 {
		return false
	}
	// Order positions by penalty and evaluate exact (adjacency-aware)
	// triple costs over the cheapest few — a triple that beats them
	// would need an adjacency discount its members' penalties cannot
	// offset.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ba.minOff[idx[a]] != ba.minOff[idx[b]] {
			return ba.minOff[idx[a]] < ba.minOff[idx[b]]
		}
		return idx[a] < idx[b]
	})
	k := len(idx)
	if k > 12 {
		k = 12
	}
	for a := 0; a < k-2; a++ {
		for b := a + 1; b < k-1; b++ {
			for c := b + 1; c < k; c++ {
				if tripleCost(ba.minOff, idx[a], idx[b], idx[c]) <= budget {
					return true
				}
			}
		}
	}
	// Padded comparison plus two substitutions (the blank last cell is a
	// penalty item at position m-1).
	if ba.blank >= 0 && m >= 3 {
		lim := 0
		for _, i := range idx {
			if i < m-1 {
				idx[lim] = i
				lim++
			}
		}
		if lim > 8 {
			lim = 8
		}
		for a := 0; a < lim-1; a++ {
			for b := a + 1; b < lim; b++ {
				i, j := idx[a], idx[b]
				if i > j {
					i, j = j, i
				}
				if comboCost([]int{i, j, m - 1},
					[]float64{ba.minOff[i], ba.minOff[j], ba.blank}) <= budget {
					return true
				}
			}
		}
	}
	return false
}

// tripleCost is comboCost over three sorted positions.
func tripleCost(minOff []float64, a, b, c int) float64 {
	x, y, z := a, b, c
	if x > y {
		x, y = y, x
	}
	if y > z {
		y, z = z, y
	}
	if x > y {
		x, y = y, x
	}
	return comboCost([]int{x, y, z}, []float64{minOff[x], minOff[y], minOff[z]})
}

// serialize lays out the index image per the format comment in format.go.
func serialize(list []brands.Brand, fp uint64, foldMap []byte,
	keyed map[string][]uint32, pairSet map[[3]uint8]struct{},
	hardSet map[uint32]struct{}) []byte {

	keys := make([]string, 0, len(keyed))
	for k := range keyed {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	hard := make([]uint32, 0, len(hardSet))
	for id := range hardSet {
		hard = append(hard, id)
	}
	sort.Slice(hard, func(i, j int) bool { return hard[i] < hard[j] })

	pairs := make([][3]uint8, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})

	// Blobs.
	var brandsBlob []byte
	for _, b := range list {
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(b.Domain)))
		brandsBlob = append(brandsBlob, u16[:]...)
		brandsBlob = append(brandsBlob, b.Domain...)
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(b.Rank))
		brandsBlob = append(brandsBlob, u32[:]...)
	}

	var keysBlob, entriesBlob []byte
	keyOff := make([]uint32, len(keys))
	entOff := make([]uint32, len(keys))
	for i, k := range keys {
		keyOff[i] = uint32(len(keysBlob))
		keysBlob = append(keysBlob, byte(len(k)))
		keysBlob = append(keysBlob, k...)

		ids := keyed[k]
		entOff[i] = uint32(len(entriesBlob))
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(ids)))
		entriesBlob = append(entriesBlob, u16[:]...)
		var u32 [4]byte
		for _, id := range ids {
			binary.LittleEndian.PutUint32(u32[:], id)
			entriesBlob = append(entriesBlob, u32[:]...)
		}
	}

	slotCount := uint32(2)
	for slotCount < uint32(len(keys))*2 {
		slotCount <<= 1
	}
	slots := make([]byte, slotCount*8)
	mask := slotCount - 1
	for i, k := range keys {
		h := uint32(simchar.HashBytes(0, []byte(k)))
		for {
			s := h & mask
			if binary.LittleEndian.Uint32(slots[s*8:]) == 0 {
				binary.LittleEndian.PutUint32(slots[s*8:], keyOff[i]+1)
				binary.LittleEndian.PutUint32(slots[s*8+4:], entOff[i])
				break
			}
			h++
		}
	}

	total := headerSize + len(foldMap) + len(brandsBlob) + len(hard)*4 + len(pairs)*3 +
		len(slots) + len(keysBlob) + len(entriesBlob) + 8
	data := make([]byte, 0, total)
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint64(hdr[8:], fp)
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(SSIMThreshold))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(list)))
	binary.LittleEndian.PutUint32(hdr[28:], slotCount)
	binary.LittleEndian.PutUint32(hdr[32:], uint32(len(hard)))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(len(pairs)))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(brandsBlob)))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(len(keysBlob)))
	binary.LittleEndian.PutUint32(hdr[48:], uint32(len(entriesBlob)))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(len(foldMap)))
	data = append(data, hdr[:]...)
	data = append(data, foldMap...)
	data = append(data, brandsBlob...)
	var u32 [4]byte
	for _, id := range hard {
		binary.LittleEndian.PutUint32(u32[:], id)
		data = append(data, u32[:]...)
	}
	for _, p := range pairs {
		data = append(data, p[0], p[1], p[2])
	}
	data = append(data, slots...)
	data = append(data, keysBlob...)
	data = append(data, entriesBlob...)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], simchar.HashBytes(0, data))
	data = append(data, sum[:]...)
	return data
}
