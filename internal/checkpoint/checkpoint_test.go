package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gobBox is a minimal Snapshotter/Restorer for the interface round trip.
type gobBox struct {
	Values []float64
	Label  string
}

func (b *gobBox) SnapshotTo(w io.Writer) error  { return gob.NewEncoder(w).Encode(b) }
func (b *gobBox) RestoreFrom(r io.Reader) error { return gob.NewDecoder(r).Decode(b) }

func sampleFile(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	if err := w.AddBytes("meta", []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBytes("empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("model", &gobBox{Values: []float64{1.5, -2.25, 0}, Label: "actor"}); err != nil {
		t.Fatal(err)
	}
	return w.Encode()
}

func TestRoundTrip(t *testing.T) {
	data := sampleFile(t)
	f, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := f.Names(); len(got) != 3 || got[0] != "meta" || got[1] != "empty" || got[2] != "model" {
		t.Fatalf("Names = %v", got)
	}
	meta, err := f.Bytes("meta")
	if err != nil || string(meta) != `{"version":1}` {
		t.Fatalf("meta = %q, %v", meta, err)
	}
	if p, err := f.Bytes("empty"); err != nil || len(p) != 0 {
		t.Fatalf("empty = %v, %v", p, err)
	}
	var box gobBox
	if err := f.Restore("model", &box); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if box.Label != "actor" || len(box.Values) != 3 || box.Values[1] != -2.25 {
		t.Fatalf("restored box = %+v", box)
	}
	if _, err := f.Bytes("missing"); !errors.Is(err, ErrNoSection) {
		t.Fatalf("missing section: err = %v, want ErrNoSection", err)
	}
}

func TestDuplicateAddRejected(t *testing.T) {
	w := NewWriter()
	if err := w.AddBytes("a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddBytes("a", []byte("new")); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second add of %q: err = %v, want a duplicate-section error", "a", err)
	}
	f, err := Decode(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := f.Bytes("a"); string(p) != "old" {
		t.Fatalf("payload = %q, want old", p)
	}
	if n := f.Names(); len(n) != 1 {
		t.Fatalf("sections = %v, want one", n)
	}
}

func TestBadMagic(t *testing.T) {
	data := sampleFile(t)
	data[0] ^= 0xff
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("short")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("tiny file: err = %v, want ErrBadMagic", err)
	}
}

func TestWrongVersion(t *testing.T) {
	data := sampleFile(t)
	binary.BigEndian.PutUint32(data[len(Magic):], Version+7)
	// Version is covered by the table CRC, so also fix that up to prove the
	// version check itself fires (not just the checksum).
	fixTableCRC(t, data)
	_, err := Decode(data)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	if !strings.Contains(err.Error(), "v8") || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("error %q should name both versions", err)
	}
}

// fixTableCRC recomputes the table checksum after a deliberate header edit.
func fixTableCRC(t *testing.T, data []byte) {
	t.Helper()
	// Re-encode by decoding structure manually: find table end by walking.
	off := len(Magic) + 8
	count := binary.BigEndian.Uint32(data[len(Magic)+4:])
	for i := uint32(0); i < count; i++ {
		nameLen := int(binary.BigEndian.Uint16(data[off:]))
		off += 2 + nameLen + 12
	}
	crc := crc32.ChecksumIEEE(data[:off])
	binary.BigEndian.PutUint32(data[off:], crc)
}

func TestTruncations(t *testing.T) {
	data := sampleFile(t)
	// Every strict prefix must be rejected, never decoded.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(data))
		}
	}
	// Trailing garbage is corruption too.
	if _, err := Decode(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: want ErrCorrupt")
	}
}

func TestBitFlips(t *testing.T) {
	data := sampleFile(t)
	// Flip one bit in every byte position; all mutants must be rejected
	// (any surviving flip would be in a section we could silently restore).
	for i := range data {
		mutant := append([]byte(nil), data...)
		mutant[i] ^= 0x10
		if bytes.Equal(mutant, data) {
			continue
		}
		if _, err := Decode(mutant); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "ck.bin")
	w := NewWriter()
	if err := w.AddBytes("x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if p, _ := f.Bytes("x"); string(p) != "payload" {
		t.Fatalf("payload = %q", p)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
	// Overwrite goes through the same atomic path.
	w = NewWriter()
	if err := w.AddBytes("x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := f.Bytes("x"); string(p) != "v2" {
		t.Fatalf("payload after overwrite = %q", p)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
}

func TestSectionNameLimits(t *testing.T) {
	w := NewWriter()
	if err := w.AddBytes("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.AddBytes(strings.Repeat("n", maxNameLen+1), nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}
