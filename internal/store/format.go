// Package store implements the on-disk weight-storage subsystem for
// GB-scale protected checkpoints: a versioned, page-aligned binary format
// (header + per-layer section table + raw int8 weight pages) with a
// streaming writer and an mmap-backed zero-copy reader.
//
// The format exists because the gob checkpoint path decodes the full float
// model into heap memory, which caps protected deployments at toy sizes.
// A store checkpoint instead holds the quantized DRAM image itself — the
// exact bytes RADAR defends — and the reader exposes each layer as a
// []int8 view over the mapped file, so multi-GB weights can be protected,
// scanned and recovered as a stream without signatures-plus-weights ever
// co-residing in RAM. Platforms without a usable mmap fall back to a plain
// read-into-RAM loader with identical semantics (see Open).
//
// Layout (all integers little-endian):
//
//	page 0       64-byte header, rest of the page reserved
//	page 1…      per-layer weight sections, each starting on a page boundary
//	tail         section table (name, scales, offset, weight count per layer)
//
// The table lives after the data so the writer can stream layers of
// unknown count; the header (rewritten on Close) points at it. Weight
// bytes are raw two's-complement int8 in layer order — the mapped file is
// byte-identical to the in-memory Layer.Q the rest of the system already
// operates on.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"radar/internal/quant"
)

// PageSize is the section alignment of the format. It matches the common
// 4 KiB virtual-memory page, so a mapped layer starts on an OS page
// boundary on every mainstream platform (larger-page hosts still work;
// sync and release just round to their own page size).
const PageSize = 4096

// Version is the current format version.
const Version = 1

// headerSize is the fixed encoded header length; the rest of page 0 is
// reserved for future use.
const headerSize = 64

// magic identifies a store checkpoint ("RADR STOre v1 family").
var magic = [8]byte{'R', 'A', 'D', 'R', 'S', 'T', 'O', '1'}

// ErrFormat is wrapped by every open-time validation failure: bad magic,
// unsupported version, corrupt table, or geometry that does not fit the
// file. A caller that sees ErrFormat should treat the file as not being a
// (usable) store checkpoint.
var ErrFormat = errors.New("store: invalid checkpoint")

// layerMeta is one section-table entry.
type layerMeta struct {
	name    string
	scale   float32
	scales  []float32
	off     int64 // absolute file offset, page-aligned
	weights int64 // int8 count == byte length
}

// header is the decoded fixed header.
type header struct {
	layers   uint32
	tableCRC uint32
	tableOff uint64
	tableLen uint64
	dataOff  uint64
	fileSize uint64
}

// pageAlign rounds n up to the next PageSize boundary.
func pageAlign(n int64) int64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// encodeHeader renders the fixed header block.
func encodeHeader(h header) []byte {
	buf := make([]byte, headerSize)
	copy(buf, magic[:])
	le := binary.LittleEndian
	le.PutUint32(buf[8:], Version)
	le.PutUint32(buf[12:], PageSize)
	le.PutUint32(buf[16:], h.layers)
	le.PutUint32(buf[20:], h.tableCRC)
	le.PutUint64(buf[24:], h.tableOff)
	le.PutUint64(buf[32:], h.tableLen)
	le.PutUint64(buf[40:], h.dataOff)
	le.PutUint64(buf[48:], h.fileSize)
	return buf
}

// decodeHeader parses and validates the fixed header block.
func decodeHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < headerSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrFormat, len(buf))
	}
	if [8]byte(buf[:8]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[8:]); v != Version {
		return h, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	if ps := le.Uint32(buf[12:]); ps != PageSize {
		return h, fmt.Errorf("%w: unsupported page size %d", ErrFormat, ps)
	}
	h.layers = le.Uint32(buf[16:])
	h.tableCRC = le.Uint32(buf[20:])
	h.tableOff = le.Uint64(buf[24:])
	h.tableLen = le.Uint64(buf[32:])
	h.dataOff = le.Uint64(buf[40:])
	h.fileSize = le.Uint64(buf[48:])
	return h, nil
}

// encodeTable renders the section table for the given layers.
func encodeTable(layers []layerMeta) []byte {
	var buf []byte
	le := binary.LittleEndian
	u16 := func(v uint16) { buf = le.AppendUint16(buf, v) }
	u32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	for _, l := range layers {
		u16(uint16(len(l.name)))
		buf = append(buf, l.name...)
		u32(math.Float32bits(l.scale))
		u32(uint32(len(l.scales)))
		for _, s := range l.scales {
			u32(math.Float32bits(s))
		}
		u64(uint64(l.off))
		u64(uint64(l.weights))
	}
	return buf
}

// decodeTable parses n section-table entries and validates their geometry
// against the file size.
func decodeTable(buf []byte, n int, fileSize int64) ([]layerMeta, error) {
	// The header's layer count is outside the table CRC: bound it by the
	// smallest entry (name length, a 1-byte name, scale, scale count,
	// offset, weights) before it sizes an allocation.
	if n > len(buf)/(2+1+4+4+8+8) {
		return nil, fmt.Errorf("%w: %d layers cannot fit a %d-byte section table", ErrFormat, n, len(buf))
	}
	le := binary.LittleEndian
	layers := make([]layerMeta, 0, n)
	seen := make(map[string]bool, n)
	pos := 0
	need := func(k int) error {
		if pos+k > len(buf) {
			return fmt.Errorf("%w: truncated section table", ErrFormat)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		var m layerMeta
		if err := need(2); err != nil {
			return nil, err
		}
		nameLen := int(le.Uint16(buf[pos:]))
		pos += 2
		if err := need(nameLen); err != nil {
			return nil, err
		}
		m.name = string(buf[pos : pos+nameLen])
		pos += nameLen
		if m.name == "" {
			return nil, fmt.Errorf("%w: layer %d has an empty name", ErrFormat, i)
		}
		if seen[m.name] {
			return nil, fmt.Errorf("%w: duplicate layer name %q", ErrFormat, m.name)
		}
		seen[m.name] = true
		if err := need(8); err != nil {
			return nil, err
		}
		m.scale = math.Float32frombits(le.Uint32(buf[pos:]))
		nScales := int(le.Uint32(buf[pos+4:]))
		pos += 8
		if err := need(4 * nScales); err != nil {
			return nil, err
		}
		if nScales > 0 {
			m.scales = make([]float32, nScales)
			for k := range m.scales {
				m.scales[k] = math.Float32frombits(le.Uint32(buf[pos+4*k:]))
			}
		}
		pos += 4 * nScales
		if err := need(16); err != nil {
			return nil, err
		}
		m.off = int64(le.Uint64(buf[pos:]))
		m.weights = int64(le.Uint64(buf[pos+8:]))
		pos += 16
		if m.weights <= 0 {
			return nil, fmt.Errorf("%w: layer %q has %d weights", ErrFormat, m.name, m.weights)
		}
		if m.off%PageSize != 0 {
			return nil, fmt.Errorf("%w: layer %q offset %d is not page-aligned", ErrFormat, m.name, m.off)
		}
		// Bounds without computing m.off+m.weights: for a crafted entry the
		// sum can wrap int64 negative and slip past a naive end check. A
		// huge uint64 off lands negative after the int64 cast and is caught
		// by the headerSize floor; weights <= 0 was rejected above, so
		// fileSize-m.off cannot overflow here.
		if m.off < headerSize || m.off > fileSize || m.weights > fileSize-m.off {
			return nil, fmt.Errorf("%w: layer %q section at offset %d (%d weights) exceeds file size %d",
				ErrFormat, m.name, m.off, m.weights, fileSize)
		}
		layers = append(layers, m)
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after section table", ErrFormat, len(buf)-pos)
	}
	return layers, nil
}

// Writer streams layers into a new checkpoint file. Layers are written in
// order: AddLayer declares the next section, Write appends its weight
// bytes, and Close (after the last layer is complete) emits the section
// table and the header. The file is invalid until Close returns nil.
type Writer struct {
	f       *os.File
	w       *bufio.Writer
	off     int64 // logical write offset
	layers  []layerMeta
	remain  int64 // bytes still owed to the current layer
	closed  bool
	anyErr  error
	padding [PageSize]byte
}

// Create opens path for writing (truncating any existing file) and
// reserves the header page.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<20)}
	if err := w.pad(PageSize); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// pad writes zero bytes until the logical offset reaches target.
func (w *Writer) pad(target int64) error {
	for w.off < target {
		n := target - w.off
		if n > PageSize {
			n = PageSize
		}
		k, err := w.w.Write(w.padding[:n])
		w.off += int64(k)
		if err != nil {
			return w.fail(err)
		}
	}
	return nil
}

func (w *Writer) fail(err error) error {
	if w.anyErr == nil {
		w.anyErr = err
	}
	return err
}

// AddLayer declares the next layer section: name (must be unique and
// non-empty), its dequantization scale(s), and the exact number of int8
// weights the caller will stream through Write. The section starts on a
// page boundary.
func (w *Writer) AddLayer(name string, scale float32, scales []float32, weights int64) error {
	if w.anyErr != nil {
		return w.anyErr
	}
	if w.closed {
		return w.fail(errors.New("store: AddLayer after Close"))
	}
	if w.remain != 0 {
		return w.fail(fmt.Errorf("store: layer %q is short %d bytes", w.layers[len(w.layers)-1].name, w.remain))
	}
	if name == "" {
		return w.fail(errors.New("store: empty layer name"))
	}
	if weights <= 0 {
		return w.fail(fmt.Errorf("store: layer %q declared with %d weights", name, weights))
	}
	for _, l := range w.layers {
		if l.name == name {
			return w.fail(fmt.Errorf("store: duplicate layer name %q", name))
		}
	}
	if err := w.pad(pageAlign(w.off)); err != nil {
		return err
	}
	w.layers = append(w.layers, layerMeta{name: name, scale: scale, scales: scales, off: w.off, weights: weights})
	w.remain = weights
	return nil
}

// Write streams weight bytes into the current layer. Writing more bytes
// than the layer declared is an error.
func (w *Writer) Write(p []byte) (int, error) {
	if w.anyErr != nil {
		return 0, w.anyErr
	}
	if len(w.layers) == 0 {
		return 0, w.fail(errors.New("store: Write before AddLayer"))
	}
	if int64(len(p)) > w.remain {
		return 0, w.fail(fmt.Errorf("store: layer %q overflows its declared size", w.layers[len(w.layers)-1].name))
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	w.remain -= int64(n)
	if err != nil {
		return n, w.fail(err)
	}
	return n, nil
}

// Close completes the checkpoint: it validates that the last layer
// received every declared byte, appends the section table, rewrites the
// header, and syncs the file. A Writer whose Close returned an error
// leaves an invalid file behind.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("store: double Close")
	}
	w.closed = true
	defer w.f.Close()
	if w.anyErr != nil {
		return w.anyErr
	}
	if w.remain != 0 {
		return fmt.Errorf("store: layer %q is short %d bytes", w.layers[len(w.layers)-1].name, w.remain)
	}
	if len(w.layers) == 0 {
		return errors.New("store: checkpoint has no layers")
	}
	if err := w.pad(pageAlign(w.off)); err != nil {
		return err
	}
	table := encodeTable(w.layers)
	tableOff := w.off
	if _, err := w.w.Write(table); err != nil {
		return err
	}
	w.off += int64(len(table))
	if err := w.w.Flush(); err != nil {
		return err
	}
	h := header{
		layers:   uint32(len(w.layers)),
		tableCRC: crc32.ChecksumIEEE(table),
		tableOff: uint64(tableOff),
		tableLen: uint64(len(table)),
		dataOff:  PageSize,
		fileSize: uint64(w.off),
	}
	if _, err := w.f.WriteAt(encodeHeader(h), 0); err != nil {
		return err
	}
	return w.f.Sync()
}

// Save writes m's quantized image as a store checkpoint at path — the
// gob→store conversion path for models that already live in RAM. Layer
// order, names, scales and weight bytes round-trip exactly.
func Save(path string, m *quant.Model) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	for _, l := range m.Layers {
		if err := w.AddLayer(l.Name, l.Scale, l.Scales, int64(len(l.Q))); err != nil {
			w.Close()
			return err
		}
		if _, err := w.Write(int8ToBytes(l.Q)); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
