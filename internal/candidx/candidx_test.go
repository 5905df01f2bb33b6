package candidx

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/simchar"
)

func testBrands(n int) []brands.Brand {
	return brands.TopK(n)
}

func TestBuildDeterministic(t *testing.T) {
	list := testBrands(100)
	a, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two builds of the same catalog differ")
	}
}

func TestRoundTrip(t *testing.T) {
	list := testBrands(50)
	ix, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(append([]byte(nil), ix.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() != ix.Fingerprint() {
		t.Fatal("header fields changed across round-trip")
	}
	if len(re.Brands()) != len(list) {
		t.Fatalf("brand count %d != %d", len(re.Brands()), len(list))
	}
	for i, b := range re.Brands() {
		if b != list[i] {
			t.Fatalf("brand %d: %+v != %+v", i, b, list[i])
		}
	}
	// Lookups through the reloaded copy are a fixed point of the original.
	var p1, p2 Probe
	for _, b := range list[:20] {
		label := b.Label()
		got := append([]uint32(nil), ix.Candidates(label, &p1)...)
		rt := re.Candidates(label, &p2)
		if len(got) != len(rt) {
			t.Fatalf("%q: candidate count %d != %d", label, len(got), len(rt))
		}
		for i := range got {
			if got[i] != rt[i] {
				t.Fatalf("%q: candidates diverge at %d", label, i)
			}
		}
	}
}

func TestSelfLookup(t *testing.T) {
	list := testBrands(200)
	ix, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p Probe
	for id, b := range list {
		cands := ix.Candidates(b.Label(), &p)
		found := false
		for _, c := range cands {
			if int(c) == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("brand %d (%q) not a candidate for its own label", id, b.Label())
		}
		for i := 1; i < len(cands); i++ {
			if cands[i] <= cands[i-1] {
				t.Fatalf("candidates not strictly ascending for %q", b.Label())
			}
		}
	}
}

func TestHoleLookup(t *testing.T) {
	list := testBrands(100)
	ix, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p Probe
	// A one-rune perturbation with an unfoldable rune (a hash glyph)
	// must still reach the brand through its single-hole key.
	for id, b := range list[:30] {
		label := []rune(b.Label())
		if len(label) < 2 {
			continue
		}
		label[len(label)/2] = '日'
		cands := ix.Candidates(string(label), &p)
		found := false
		for _, c := range cands {
			if int(c) == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("brand %d (%q) unreachable through hole key for %q",
				id, b.Label(), string(label))
		}
	}
}

func TestTruncationLookup(t *testing.T) {
	list := testBrands(100)
	ix, err := Build(list, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p Probe
	// A label one rune longer than a brand renders as the brand plus a
	// truncated (invisible) tail rune, so the brand must be a candidate.
	for id, b := range list[:30] {
		label := b.Label() + "ő"
		cands := ix.Candidates(label, &p)
		found := false
		for _, c := range cands {
			if int(c) == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("brand %d (%q) unreachable through prefix probe for %q",
				id, b.Label(), label)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ix, err := Build(testBrands(20), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := ix.Bytes()

	if _, err := Load(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Load(good[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Load(good[:len(good)-3]); err == nil {
		t.Error("truncated tail accepted")
	}
	for _, off := range []int{0, 9, 17, 25, 30, 40, len(good) / 2, len(good) - 9} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x41
		if _, err := Load(bad); err == nil {
			t.Errorf("single-byte corruption at %d accepted", off)
		}
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	ix, err := Build(testBrands(20), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip the stored fingerprint and re-checksum: structurally valid
	// but derived from "another" glyph design.
	bad := append([]byte(nil), ix.Bytes()...)
	bad[8] ^= 1
	fixChecksum(bad)
	if _, err := Load(bad); err != ErrFingerprint {
		t.Fatalf("want ErrFingerprint, got %v", err)
	}
}

// TestThresholdMismatchRejected: an index compiled for another SSIM
// threshold is refused, and the error names both values.
func TestThresholdMismatchRejected(t *testing.T) {
	ix, err := Build(testBrands(20), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ix.Bytes()...)
	binary.LittleEndian.PutUint64(bad[16:], math.Float64bits(0.95))
	fixChecksum(bad)
	_, err = Load(bad)
	if err == nil {
		t.Fatal("index compiled for 0.95 accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "0.95") || !strings.Contains(msg, "0.98") {
		t.Fatalf("error %q does not name both thresholds", msg)
	}
}

// TestWriteFileRoundTrip: WriteFile then LoadFile returns the same image,
// and a rewrite replaces the file in place.
func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "brands.cidx")
	for _, n := range []int{10, 20} {
		ix, err := Build(testBrands(n), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		re, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), ix.Bytes()) {
			t.Fatalf("%d brands: file image differs from the built one", n)
		}
	}
}

// TestWriteFileFailedWrite: when the write fails (the temp file is
// pointed at /dev/full, which answers ENOSPC), WriteFile reports it,
// leaves no temp file behind and the previous index stays loadable.
func TestWriteFileFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "brands.cidx")
	old, err := Build(testBrands(10), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := old.WriteFile(path); err == nil {
		t.Fatal("WriteFile succeeded writing to a full device")
	}
	if tmps, _ := filepath.Glob(path + "*.tmp"); len(tmps) != 0 {
		t.Fatalf("failed write left %v behind", tmps)
	}
	if re, err := LoadFile(path); err != nil || !bytes.Equal(re.Bytes(), old.Bytes()) {
		t.Fatalf("after the failed write the old index does not load: %v", err)
	}
}

// fixChecksum recomputes the trailing checksum after a test mutation.
func fixChecksum(data []byte) {
	sum := simchar.HashBytes(0, data[:len(data)-8])
	for i := 0; i < 8; i++ {
		data[len(data)-8+i] = byte(sum >> (8 * i))
	}
}

func TestStatsCount(t *testing.T) {
	ix, err := Build(testBrands(10), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p Probe
	ix.Candidates(ix.Brands()[0].Label(), &p)
	ix.Candidates("zzzzzz-no-such-brand", &p)
	lookups, hits := ix.Stats()
	if lookups != 2 {
		t.Fatalf("lookups = %d, want 2", lookups)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}
