package framelog_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"idnlab/internal/api"
	"idnlab/internal/core"
	"idnlab/internal/vstore"
	"idnlab/internal/watch"
)

// On-disk compatibility without binary fixtures: the expected bytes of
// all four durable files are assembled here from the documented layout
// alone — stdlib CRC32C and little-endian puts, nothing from framelog —
// and compared with what the alert log, the watch cursor, the verdict
// store's log and its snapshot writer put on disk.

// frames returns header followed by one u32le len | u32le crc32c |
// payload frame per payload.
func frames(header []byte, payloads ...[]byte) []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := append([]byte(nil), header...)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out
}

func wantFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the documented layout:\n got %q\nwant %q", filepath.Base(path), got, want)
	}
}

func TestAlertLogFileFormat(t *testing.T) {
	alerts := []watch.Alert{
		{Serial: 2017080101, Op: "add", Domain: "xn--pple-43d.com", Unicode: "аpple.com", Brand: "apple.com", SSIM: 1, Subs: 3},
		{Serial: 2017080101, Op: "add", Domain: "xn--80ak6aa92e.com", Unicode: "аррӏе.com", Brand: "apple.com", SSIM: 0.998, Subs: 1},
		{Serial: 2017080102, Op: "change", Domain: "xn--ggle-55da.com", Unicode: "gооgle.com", Brand: "google.com", SSIM: 0.9971, Subs: 12},
	}
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := watch.OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, a := range alerts {
		if err := l.Append(a); err != nil {
			t.Fatal(err)
		}
		p, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantFile(t, path, frames([]byte("IDNALOG1"), payloads...))
}

func TestCursorFileFormat(t *testing.T) {
	// Two one-add deltas, each an attack on a watched brand.
	dir := t.TempDir()
	for i, owner := range []string{"xn--pple-43d", "xn--80ak6aa92e"} {
		serial := 2017080101 + i
		delta := fmt.Sprintf("$ORIGIN com.\n"+
			"@ IN SOA ns1.registry.example. hostmaster.registry.example. %[1]d 900 300 604800 86400\n"+
			"@ IN SOA ns1.registry.example. hostmaster.registry.example. %[2]d 900 300 604800 86400\n"+
			"@ IN SOA ns1.registry.example. hostmaster.registry.example. %[1]d 900 300 604800 86400\n"+
			"%[3]s IN NS ns1.parking.example.\n", serial, serial-1, owner)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("delta-%010d.zone", serial)), []byte(delta), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	det := core.NewHomographDetector(1000)
	subs := watch.NewSubTable(len(det.Index().Brands()))
	for b := range det.Index().Brands() {
		subs.Subscribe(uint32(b), 1)
	}
	subs.Compile()
	eng, err := watch.NewEngine(det, subs, watch.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "alerts.log")
	l, err := watch.OpenAlertLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := watch.NewRunner(eng, l, dir, logPath+".cursor")
	if err != nil {
		t.Fatal(err)
	}
	if files, alerts, err := r.Poll(context.Background()); err != nil || files != 2 || alerts != 2 {
		t.Fatalf("Poll: %d files, %d alerts, err %v; want 2 and 2", files, alerts, err)
	}
	if err := errors.Join(r.Close(), l.Close()); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	if _, err := watch.ReplayAlertLog(logPath, 0, func(end int64, a watch.Alert) error {
		// Payload: u32le serial | u64le the alert-log offset after the
		// delta's alerts.
		p := binary.LittleEndian.AppendUint32(nil, a.Serial)
		payloads = append(payloads, binary.LittleEndian.AppendUint64(p, uint64(end)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantFile(t, logPath+".cursor", frames([]byte("IDNCUR01"), payloads...))
}

func TestVerdictStoreFileFormats(t *testing.T) {
	verdicts := []core.Verdict{
		{Domain: "xn--pple-43d.com", Unicode: "аpple.com", IDN: true},
		{Domain: "example.com", Unicode: "example.com"},
		{Domain: "xn--80ak6aa92e.com", Unicode: "аррӏе.com", IDN: true},
	}
	dir := t.TempDir()
	st, err := vstore.Open(vstore.Config{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i, v := range verdicts {
		seq := st.Append(v)
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d", i, seq)
		}
		// Record payload: u64le seq, then the verdict's wire form.
		p, err := api.AppendDetectResponse(binary.LittleEndian.AppendUint64(nil, seq),
			&api.DetectResponse{Verdict: v, Flagged: v.Flagged()})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Log: magic | u64le baseSeq (0: nothing precedes the first log).
	logHeader := binary.LittleEndian.AppendUint64([]byte("IDNVLOG1"), 0)
	wantFile(t, filepath.Join(dir, "wlog-0000000000000000.vlog"), frames(logHeader, payloads...))

	// Snapshot: magic | u64le watermark | u32le count, records ascending.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snapHeader := binary.LittleEndian.AppendUint64([]byte("IDNVSNP1"), 3)
	snapHeader = binary.LittleEndian.AppendUint32(snapHeader, 3)
	wantFile(t, filepath.Join(dir, "snapshot.vsnap"), frames(snapHeader, payloads...))

	// The rotation left the successor log: header only, baseSeq 3.
	wantFile(t, filepath.Join(dir, "wlog-0000000000000003.vlog"), binary.LittleEndian.AppendUint64([]byte("IDNVLOG1"), 3))
	if _, err := os.Stat(filepath.Join(dir, "wlog-0000000000000000.vlog")); !os.IsNotExist(err) {
		t.Fatalf("the log the snapshot covers is still there (err %v)", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
