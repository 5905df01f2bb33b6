package feat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"idnlab/internal/simchar"
	"idnlab/internal/uniscript"
)

// The acceptance corpus: the same (seed, scale) the report and the smoke
// harness use. Training is the expensive part of this suite, so every
// test shares one run.
const (
	testSeed  = 2018
	testScale = 100
)

var trained struct {
	once  sync.Once
	model *Model
	rep   *TrainReport
	exs   []Example
	err   error
}

func trainedModel(t testing.TB) (*Model, *TrainReport, []Example) {
	t.Helper()
	trained.once.Do(func() {
		trained.model, trained.rep, trained.exs, trained.err =
			TrainCorpus(testSeed, testScale, TrainConfig{})
	})
	if trained.err != nil {
		t.Fatalf("TrainCorpus(%d, %d): %v", testSeed, testScale, trained.err)
	}
	return trained.model, trained.rep, trained.exs
}

func TestTrainDeterminism(t *testing.T) {
	// Two independent runs from the same (seed, scale) must produce
	// bit-identical blobs: the format is content-addressed downstream
	// (checksums, golden smoke output), so any nondeterminism — map
	// iteration, unseeded shuffles — is a bug, not noise.
	m1, _, _, err := TrainCorpus(testSeed, 30, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _, err := TrainCorpus(testSeed, 30, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatalf("identical training inputs produced different model blobs (%d vs %d bytes)",
			len(m1.Bytes()), len(m2.Bytes()))
	}
	m3, _, _, err := TrainCorpus(testSeed+1, 30, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(m1.Bytes(), m3.Bytes()) {
		t.Fatal("different seeds produced identical model blobs")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	m, _, exs := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.idnstat")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes(), loaded.Bytes()) {
		t.Fatal("disk round trip changed the blob")
	}
	if loaded.Seed() != m.Seed() || loaded.BigramCount() != m.BigramCount() {
		t.Fatalf("round trip changed header: seed %d→%d bigrams %d→%d",
			m.Seed(), loaded.Seed(), m.BigramCount(), loaded.BigramCount())
	}
	// Scores through the loaded model must be bit-identical — both sides
	// read the same zero-copy path over the same bytes.
	for _, e := range exs[:200] {
		a := m.ScoreLabel(e.Label, e.ACELabel, e.TLD)
		b := loaded.ScoreLabel(e.Label, e.ACELabel, e.TLD)
		if a != b {
			t.Fatalf("score diverged after round trip for %q: %v vs %v", e.Label, a, b)
		}
	}
}

// TestWriteFileFailedWrite: when the write fails (the temp file is
// pointed at /dev/full, which answers ENOSPC), WriteFile reports it,
// leaves no temp file behind and the previous model stays loadable.
func TestWriteFileFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	m, _, _ := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.idnstat")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(path); err == nil {
		t.Fatal("WriteFile succeeded writing to a full device")
	}
	if tmps, _ := filepath.Glob(path + "*.tmp"); len(tmps) != 0 {
		t.Fatalf("failed write left %v behind", tmps)
	}
	if re, err := LoadFile(path); err != nil || !bytes.Equal(re.Bytes(), m.Bytes()) {
		t.Fatalf("after the failed write the old model does not load: %v", err)
	}
}

// reseal recomputes the trailing checksum after a test mutation, so the
// corruption under test — not the checksum — is what Load rejects.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint64(data[len(data)-8:],
		simchar.HashBytes(0, data[:len(data)-8]))
	return data
}

func TestLoadCorruption(t *testing.T) {
	m, _, _ := trainedModel(t)
	if m.BigramCount() < 2 {
		t.Fatal("need at least two bigrams to test key ordering")
	}
	blob := func() []byte { return append([]byte(nil), m.Bytes()...) }
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", blob()[:20], ErrTruncated},
		{"bad magic", func() []byte { b := blob(); b[0] = 'X'; return b }(), ErrMagic},
		{"bit flip", func() []byte { b := blob(); b[headerSize+3] ^= 0x40; return b }(), ErrChecksum},
		{"tail cut", blob()[:len(m.Bytes())-8], ErrChecksum},
		{"reserved set", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint32(b[28:], 7)
			return reseal(b)
		}(), ErrCorrupt},
		{"feature width", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint32(b[16:], NumFeatures+1)
			return reseal(b)
		}(), ErrCorrupt},
		{"tld width", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint32(b[20:], NumTLDClasses+1)
			return reseal(b)
		}(), ErrCorrupt},
		{"count vs length", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint32(b[24:], uint32(m.BigramCount()+1))
			return reseal(b)
		}(), ErrTruncated},
		{"non-finite weight", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint64(b[headerSize:], math.Float64bits(math.NaN()))
			return reseal(b)
		}(), ErrCorrupt},
		{"non-finite threshold", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint64(b[40:], math.Float64bits(math.Inf(1)))
			return reseal(b)
		}(), ErrCorrupt},
		{"unsorted keys", func() []byte {
			b := blob()
			k0 := binary.LittleEndian.Uint64(b[m.keyOff:])
			binary.LittleEndian.PutUint64(b[m.keyOff+8:], k0)
			return reseal(b)
		}(), ErrCorrupt},
		{"non-finite bigram", func() []byte {
			b := blob()
			binary.LittleEndian.PutUint64(b[m.valOff:], math.Float64bits(math.NaN()))
			return reseal(b)
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := Load(blob()); err != nil {
		t.Fatalf("pristine blob failed to load: %v", err)
	}
}

// naiveScore is the obvious map-based reference implementation of
// ScoreDomain: same features, but the bigram table as a Go map instead
// of the in-place binary search over serialized bytes. The zero-copy
// fast path must agree bit-for-bit.
func naiveScore(m *Model, bigrams map[uint64]float64, label, aceLabel, tld string) float64 {
	var v Vector
	shape(label, aceLabel, &v)
	if m.nBigrams > 0 {
		prev := bigramStart
		sum, n := 0.0, 0
		for _, r := range label {
			sum += bigrams[bigramKey(prev, r)]
			n++
			prev = r
		}
		sum += bigrams[bigramKey(prev, bigramEnd)]
		n++
		v[fBigram] = sum / float64(n)
	}
	v[fTLDPrior] = m.tldPrior[TLDClass(tld)]
	v[fAgeDays], v[fHasAge] = 0, 0
	s := m.bias
	for i := 0; i < NumFeatures; i++ {
		s += m.weights[i] * v[i]
	}
	return s
}

// naiveBigramMap rebuilds the serialized table as a plain map.
func naiveBigramMap(m *Model) map[uint64]float64 {
	out := make(map[uint64]float64, m.nBigrams)
	for i := 0; i < m.nBigrams; i++ {
		k := binary.LittleEndian.Uint64(m.data[m.keyOff+8*i:])
		out[k] = math.Float64frombits(binary.LittleEndian.Uint64(m.data[m.valOff+8*i:]))
	}
	return out
}

func TestNaiveReferenceEquivalence(t *testing.T) {
	m, _, exs := trainedModel(t)
	bigrams := naiveBigramMap(m)
	for _, e := range exs {
		want := naiveScore(m, bigrams, e.Label, e.ACELabel, e.TLD)
		got := m.ScoreLabel(e.Label, e.ACELabel, e.TLD)
		if got != want {
			t.Fatalf("zero-copy score diverged from reference for %q: %v vs %v",
				e.Label, got, want)
		}
	}
}

// TestEvalGates pins the PR's acceptance numbers on the held-out split:
// the prefilter keeps ≥95%% of attack-population positives while passing
// ≤25%% of overall traffic to the SSIM path, and the margin ranking
// separates the classes (AUC).
func TestEvalGates(t *testing.T) {
	m, _, exs := trainedModel(t)
	_, eval := Split(exs)
	rep := Evaluate(m, eval)
	if rep.Positives == 0 {
		t.Fatal("held-out split has no positives")
	}
	if rep.PrefilterRecall < 0.95 {
		t.Fatalf("prefilter recall %.4f below the 0.95 gate", rep.PrefilterRecall)
	}
	if rep.PassRate > 0.25 {
		t.Fatalf("prefilter pass rate %.4f above the 0.25 gate", rep.PassRate)
	}
	if rep.AUC < 0.95 {
		t.Fatalf("AUC %.4f below 0.95", rep.AUC)
	}
	for _, p := range rep.Populations {
		switch p.Population {
		case "homograph", "semantic", "semantic2":
			if p.PrefilterRecall < 0.95 {
				t.Fatalf("population %s prefilter recall %.4f below 0.95",
					p.Population, p.PrefilterRecall)
			}
		}
	}
}

func TestScoreLabelAllocs(t *testing.T) {
	// The serving loop's call, cycled over the held-out set so every
	// feature branch (scripts, bigram hits and misses, TLD classes) runs.
	m, _, exs := trainedModel(t)
	_, eval := Split(exs)
	i := 0
	allocs := testing.AllocsPerRun(len(eval), func() {
		e := &eval[i%len(eval)]
		m.PrefilterPass(m.ScoreLabel(e.Label, e.ACELabel, e.TLD))
		i++
	})
	if allocs != 0 {
		t.Fatalf("ScoreLabel allocates %.1f times per call, want 0", allocs)
	}
}

func TestShapeFeatures(t *testing.T) {
	var v Vector

	shape("example", "example", &v)
	if v[fNonASCIIRatio] != 0 || v[fScriptEntropy] != 0 || v[fConfusableMix] != 0 {
		t.Fatalf("pure-ASCII label scored non-ASCII features: %+v", v)
	}
	if v[fScriptCount] != 0.25 {
		t.Fatalf("single-script count = %v, want 0.25", v[fScriptCount])
	}
	if v[fTransitions] != 0 {
		t.Fatalf("all-letter label has transitions %v", v[fTransitions])
	}
	if v[fLength] != 7.0/63 {
		t.Fatalf("length = %v, want %v", v[fLength], 7.0/63)
	}

	// Cyrillic а spliced into a Latin label: the canonical homograph.
	shape("р"+"aypal", "xn--aypal-0ve", &v)
	if v[fConfusableMix] != 1 {
		t.Fatal("Latin+Cyrillic mix not detected")
	}
	if v[fScriptCount] != 0.5 {
		t.Fatalf("two-script count = %v, want 0.5", v[fScriptCount])
	}
	if v[fScriptEntropy] <= 0 {
		t.Fatal("mixed-script label has zero entropy")
	}
	if v[fPunyExpand] <= 0 {
		t.Fatal("expanding label has zero puny-expansion")
	}

	// Single-script CJK is benign-leaning: flagged east-Asian, no mix.
	shape("東京", "xn--1lqs71d", &v)
	if v[fEastAsian] != 1 {
		t.Fatal("single-script Han label not marked east-Asian")
	}
	if v[fConfusableMix] != 0 || v[fScriptEntropy] != 0 {
		t.Fatalf("single-script CJK scored as mixed: %+v", v)
	}

	shape("abc123", "abc123", &v)
	if v[fDigitRatio] != 0.5 {
		t.Fatalf("digit ratio = %v, want 0.5", v[fDigitRatio])
	}
	if v[fTransitions] != 0.2 {
		t.Fatalf("transitions = %v, want 0.2", v[fTransitions])
	}

	shape("", "", &v)
	if v != (Vector{}) {
		t.Fatalf("empty label must produce the zero vector, got %+v", v)
	}
}

func TestTLDClass(t *testing.T) {
	cases := map[string]int{
		"com": tldCom, "net": tldNet, "org": tldOrg,
		"xn--p1ai": tldITLD, "xn--fiqs8s": tldITLD,
		"io": tldOther, "dev": tldOther, "xn--": tldOther, "": tldOther,
	}
	for tld, want := range cases {
		if got := TLDClass(tld); got != want {
			t.Errorf("TLDClass(%q) = %d, want %d", tld, got, want)
		}
	}
}

func TestTopContributions(t *testing.T) {
	m, _, exs := trainedModel(t)
	var flagged *Example
	for i := range exs {
		e := &exs[i]
		if e.Positive && m.Flag(m.ScoreLabel(e.Label, e.ACELabel, e.TLD)) {
			flagged = e
			break
		}
	}
	if flagged == nil {
		t.Fatal("no flagged positive in corpus")
	}
	top := m.TopContributions(flagged.Label, flagged.ACELabel, flagged.TLD, 0, false, 3)
	if len(top) == 0 || len(top) > 3 {
		t.Fatalf("got %d contributions, want 1..3", len(top))
	}
	for i, c := range top {
		if c.Impact == 0 {
			t.Fatalf("zero-impact contribution %q included", c.Feature)
		}
		if i > 0 && math.Abs(top[i-1].Impact) < math.Abs(c.Impact) {
			t.Fatalf("contributions not sorted by |impact|: %v", top)
		}
	}
}

func TestTrainRejectsDegenerateCorpus(t *testing.T) {
	onlyNeg := []Example{
		{Label: "example", ACELabel: "example", TLD: "com"},
		{Label: "sample", ACELabel: "sample", TLD: "org"},
	}
	if _, _, err := Train(onlyNeg, TrainConfig{Seed: 1}); err == nil {
		t.Fatal("training with no positives must fail")
	}
}

// TestConfusableScripts pins the script identities the confusable-mix
// feature depends on.
func TestConfusableScripts(t *testing.T) {
	if uniscript.Of('а') != uniscript.Cyrillic {
		t.Fatal("U+0430 must be Cyrillic")
	}
	if uniscript.Of('a') != uniscript.Latin {
		t.Fatal("U+0061 must be Latin")
	}
}
