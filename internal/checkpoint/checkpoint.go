// Package checkpoint implements the durable snapshot format for tuning
// sessions: a versioned, self-describing binary container of named
// sections, each integrity-protected by a CRC32, written atomically.
//
// File layout (all integers big-endian):
//
//	[8]  magic "HTRCKPT1"
//	[4]  format version (uint32)
//	[4]  section count (uint32)
//	per section, in order:
//	     [2] name length (uint16)
//	     [n] name (UTF-8)
//	     [8] payload length (uint64)
//	     [4] payload CRC32 (IEEE)
//	[4]  table CRC32 over every byte above
//	then the payloads, concatenated in table order, nothing after.
//
// The reader is fail-closed: magic, version, table shape, table CRC and
// every payload CRC are all verified before a single section is handed
// out, so a truncated or bit-flipped file can never partially restore a
// live session. Payload contents are opaque to the container; components
// serialize themselves through the Snapshotter/Restorer interfaces
// (typically with encoding/gob).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint file. The trailing digit is part of the
// magic, not the version: incompatible *container* layouts would change it,
// while compatible evolutions bump Version.
const Magic = "HTRCKPT1"

// Version is the current container format version.
const Version uint32 = 1

// Limits that bound the parser against corrupt or hostile inputs.
const (
	maxSections = 4096
	maxNameLen  = 256
)

// Sentinel errors, wrapped with context by the reader.
var (
	ErrBadMagic   = errors.New("checkpoint: bad magic (not a checkpoint file)")
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	ErrCorrupt    = errors.New("checkpoint: corrupt file")
	ErrNoSection  = errors.New("checkpoint: section not found")
)

// Snapshotter is implemented by components that can serialize their durable
// state. SnapshotTo must write a self-contained representation that
// RestoreFrom on the same component type can decode.
type Snapshotter interface {
	SnapshotTo(w io.Writer) error
}

// Restorer reinstates state previously written by the matching Snapshotter.
// Implementations must either succeed completely or leave the receiver
// unchanged.
type Restorer interface {
	RestoreFrom(r io.Reader) error
}

// Writer accumulates named sections and renders them as one container.
type Writer struct {
	names    []string
	payloads [][]byte
}

// NewWriter returns an empty checkpoint writer.
func NewWriter() *Writer { return &Writer{} }

// AddBytes appends a raw section. Section names are unique: adding a name
// twice is an error, as it is for Decode.
func (w *Writer) AddBytes(name string, payload []byte) error {
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("checkpoint: section name %q: length must be in [1,%d]", name, maxNameLen)
	}
	for _, n := range w.names {
		if n == name {
			return fmt.Errorf("checkpoint: duplicate section %q", name)
		}
	}
	if len(w.names) >= maxSections {
		return fmt.Errorf("checkpoint: too many sections (max %d)", maxSections)
	}
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, payload)
	return nil
}

// Add serializes a component into a named section.
func (w *Writer) Add(name string, s Snapshotter) error {
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	return w.AddBytes(name, buf.Bytes())
}

// Encode renders the container to a byte slice.
func (w *Writer) Encode() []byte {
	var head bytes.Buffer
	head.WriteString(Magic)
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], Version)
	head.Write(u32[:])
	binary.BigEndian.PutUint32(u32[:], uint32(len(w.names)))
	head.Write(u32[:])
	for i, name := range w.names {
		var u16 [2]byte
		binary.BigEndian.PutUint16(u16[:], uint16(len(name)))
		head.Write(u16[:])
		head.WriteString(name)
		binary.BigEndian.PutUint64(u64[:], uint64(len(w.payloads[i])))
		head.Write(u64[:])
		binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(w.payloads[i]))
		head.Write(u32[:])
	}
	binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(head.Bytes()))
	head.Write(u32[:])
	for _, p := range w.payloads {
		head.Write(p)
	}
	return head.Bytes()
}

// WriteFile atomically writes the container to path: the bytes land in a
// temporary file in the same directory, are synced, and only then renamed
// into place, so a crash mid-write can never leave a half-written
// checkpoint under the final name.
func (w *Writer) WriteFile(path string) error {
	data := w.Encode()
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	return nil
}

// File is a fully validated, decoded checkpoint.
type File struct {
	names    []string
	payloads map[string][]byte
}

// Decode parses and fully validates a container. It returns an error — and
// no File — on bad magic, unsupported version, malformed section table,
// truncation, trailing garbage, or any CRC mismatch.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic)+8 || string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	off := len(Magic)
	version := binary.BigEndian.Uint32(data[off:])
	off += 4
	if version != Version {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrBadVersion, version, Version)
	}
	count := binary.BigEndian.Uint32(data[off:])
	off += 4
	if count > maxSections {
		return nil, fmt.Errorf("%w: section count %d exceeds limit %d", ErrCorrupt, count, maxSections)
	}
	type entry struct {
		name string
		size uint64
		crc  uint32
	}
	entries := make([]entry, 0, count)
	var total uint64
	for i := uint32(0); i < count; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("%w: truncated section table (entry %d)", ErrCorrupt, i)
		}
		nameLen := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("%w: section %d name length %d out of range", ErrCorrupt, i, nameLen)
		}
		if off+nameLen+12 > len(data) {
			return nil, fmt.Errorf("%w: truncated section table (entry %d)", ErrCorrupt, i)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		size := binary.BigEndian.Uint64(data[off:])
		off += 8
		crc := binary.BigEndian.Uint32(data[off:])
		off += 4
		if size > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %q length %d exceeds file size", ErrCorrupt, name, size)
		}
		total += size
		if total > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section lengths exceed file size", ErrCorrupt)
		}
		entries = append(entries, entry{name, size, crc})
	}
	if off+4 > len(data) {
		return nil, fmt.Errorf("%w: truncated before table checksum", ErrCorrupt)
	}
	wantTableCRC := binary.BigEndian.Uint32(data[off:])
	if got := crc32.ChecksumIEEE(data[:off]); got != wantTableCRC {
		return nil, fmt.Errorf("%w: section table checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, wantTableCRC)
	}
	off += 4
	if uint64(len(data)-off) != total {
		return nil, fmt.Errorf("%w: payload area is %d bytes, table declares %d", ErrCorrupt, len(data)-off, total)
	}
	f := &File{payloads: make(map[string][]byte, count)}
	for _, e := range entries {
		payload := data[off : off+int(e.size)]
		off += int(e.size)
		if got := crc32.ChecksumIEEE(payload); got != e.crc {
			return nil, fmt.Errorf("%w: section %q checksum mismatch (got %08x, want %08x)", ErrCorrupt, e.name, got, e.crc)
		}
		if _, dup := f.payloads[e.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, e.name)
		}
		f.names = append(f.names, e.name)
		f.payloads[e.name] = payload
	}
	return f, nil
}

// ReadFile loads and fully validates a checkpoint from disk.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return f, nil
}

// Names lists the sections in file order.
func (f *File) Names() []string { return append([]string(nil), f.names...) }

// Has reports whether a section is present.
func (f *File) Has(name string) bool { _, ok := f.payloads[name]; return ok }

// Bytes returns a section's payload.
func (f *File) Bytes(name string) ([]byte, error) {
	p, ok := f.payloads[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSection, name)
	}
	return p, nil
}

// Restore feeds a section's payload to a component's Restorer.
func (f *File) Restore(name string, r Restorer) error {
	p, err := f.Bytes(name)
	if err != nil {
		return err
	}
	if err := r.RestoreFrom(bytes.NewReader(p)); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	return nil
}
