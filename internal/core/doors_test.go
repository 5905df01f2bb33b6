package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"idnlab/internal/brands"
	"idnlab/internal/candidx"
)

// doorVerdict is the part of a verdict every door produces: the
// homograph and semantic matches, encoded as the service encodes them.
type doorVerdict struct {
	Homograph *HomographMatch `json:"homograph,omitempty"`
	Semantic  *SemanticMatch  `json:"semantic,omitempty"`
}

// TestDoorDifferential is the one-verdict-per-domain check across the
// doors that detect without a served index file: the study's memoized
// corpus scans, a Classifier on the default index, and a Classifier on
// the same index after a WriteFile → LoadFile round trip. Over every
// labelled attack of the test universe plus 10k benign labels, the three
// must encode byte-identical homograph and semantic fields.
func TestDoorDifferential(t *testing.T) {
	var names []string
	benign, attacks := 0, 0
	for _, l := range testDS.Registry.Labels() {
		switch {
		case l.Positive:
			attacks++
		case benign < 10000:
			benign++
		default:
			continue
		}
		names = append(names, l.ACE)
	}

	st := NewStudy(testDS)
	studyHomo := make(map[string]*HomographMatch)
	for _, m := range st.homographMatches() {
		studyHomo[m.Domain] = &m
	}
	studySem := make(map[string]*SemanticMatch)
	for _, m := range st.semanticMatches() {
		studySem[m.Domain] = &m
	}

	cls := NewClassifier(DetectorConfig{TopK: 1000})
	path := filepath.Join(t.TempDir(), "brands.cidx")
	if err := NewHomographDetector(1000).Index().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ix, err := candidx.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := NewClassifier(DetectorConfig{TopK: 1000, Index: ix})

	encode := func(v doorVerdict) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	flagged := 0
	for _, name := range names {
		n, err := Normalize(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		study := encode(doorVerdict{studyHomo[n.ACE], studySem[n.ACE]})
		v := cls.Verdict(n)
		classified := encode(doorVerdict{v.Homograph, v.Semantic})
		f := fromFile.Verdict(n)
		loaded := encode(doorVerdict{f.Homograph, f.Semantic})
		if !bytes.Equal(study, classified) || !bytes.Equal(classified, loaded) {
			t.Fatalf("%s (%s): doors disagree\nstudy scan: %s\nclassifier: %s\nfile index: %s",
				name, n.Unicode, study, classified, loaded)
		}
		if v.Homograph != nil || v.Semantic != nil {
			flagged++
		}
	}
	if attacks == 0 || benign < 10000 || flagged == 0 {
		t.Fatalf("corpus exercises too little: %d attacks, %d benign, %d flagged", attacks, benign, flagged)
	}
	t.Logf("%d names (%d attacks, %d benign) agree across three doors; %d flagged", len(names), attacks, benign, flagged)
}

// TestDoorsAgreeOnLabelArtefact pins the name the confusables skeleton
// missed and the index finds: seẋ2.com is within the SSIM threshold of
// sex.com, so the study's scan configuration and the classifier both
// report it.
func TestDoorsAgreeOnLabelArtefact(t *testing.T) {
	const name = "xn--se2-bez.com"
	got, _, err := ScanHomograph(context.Background(), NewStudy(testDS).ScanConfig, []string{name}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Brand != "sex.com" {
		t.Fatalf("study scan of %s: %+v, want a sex.com match", name, got)
	}
	v, err := NewClassifier(DetectorConfig{TopK: 1000}).VerdictFor(name)
	if err != nil {
		t.Fatal(err)
	}
	if v.Homograph == nil || *v.Homograph != got[0] {
		t.Fatalf("classifier verdict for %s: %+v, want %+v", name, v.Homograph, got[0])
	}
}

// TestDefaultIndexIsTheFileIndexBuiltOnce: the index a detector built
// without WithIndex or WithBrands probes is the image `idnindex build
// -top 1000` writes, and one process builds it once — the study, the
// classifier and any number of detectors share one *candidx.Index.
func TestDefaultIndexIsTheFileIndexBuiltOnce(t *testing.T) {
	const want = "347c243d5519e3a12036d643262c4b5f67557f82954ad8612eb827ad1958f8c3"
	ix, err := candidx.Build(brands.TopK(1000), candidx.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(ix.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("top-1000 index image sha256 %s, want %s", got, want)
	}

	shared := NewHomographDetector(1000).Index()
	if !bytes.Equal(shared.Bytes(), ix.Bytes()) {
		t.Fatal("the default index differs from a fresh build of the top-1000 catalog")
	}
	scan := NewStudy(testDS).ScanConfig
	for door, got := range map[string]*candidx.Index{
		"NewStudy":             NewStudy(testDS).Homograph.Index(),
		"study scan engine":    NewHomographDetector(scan.TopK, scan.detectorOptions()...).Index(),
		"NewClassifier":        NewClassifier(DetectorConfig{TopK: 1000}).homo.Index(),
		"NewHomographDetector": NewHomographDetector(1000).Index(),
	} {
		if got != shared {
			t.Errorf("%s built its own index instead of sharing the process one", door)
		}
	}

	// Concurrent first use — idndetect's workers build their detectors at
	// once — still builds one index per catalog depth.
	first := make([]*candidx.Index, 4)
	var wg sync.WaitGroup
	for i := range first {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first[i] = NewHomographDetector(7).Index()
		}(i)
	}
	wg.Wait()
	for _, ix := range first[1:] {
		if ix != first[0] {
			t.Fatal("concurrent first use built the top-7 index more than once")
		}
	}
}
