package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"unsafe"

	"radar/internal/quant"
)

// Checkpoint is an opened store file. On platforms with mmap the weight
// sections are memory-mapped shared and writable: the quant.Model returned
// by Model exposes each layer as a zero-copy []int8 view of the file, so
// scans stream through the page cache, recovery zeroes the mapped bytes in
// place, and Sync/SyncDirty (msync) make those writes durable. Elsewhere —
// or under the InRAM option — the file is read into an anonymous buffer
// with the same surface; Sync then writes the buffer sections back.
//
// The checkpoint file is the persistent DRAM image: bit flips injected and
// recoveries performed through the model survive into the file once
// synced. Close invalidates every layer slice handed out by Model.
type Checkpoint struct {
	path   string
	f      *os.File
	data   []byte // whole-file mapping, or heap buffer in the fallback
	mapped bool
	layers []layerMeta
	q      [][]int8

	modelOnce sync.Once
	model     *quant.Model
	unobserve func()

	mu     sync.Mutex
	dirty  []bool
	closed bool
}

// options collects Open configuration.
type options struct {
	inRAM bool
}

// Option configures Open.
type Option func(*options)

// InRAM forces the read-into-RAM loader even where mmap is available —
// the differential baseline the mapped reader is pinned against, and an
// escape hatch for filesystems that reject shared writable mappings.
func InRAM() Option {
	return func(o *options) { o.inRAM = true }
}

// Open validates the checkpoint at path and maps (or loads) its weight
// sections. The file is opened read-write: scans only read, but recovery
// writes through the same mapping. When mmap is unavailable or fails, Open
// silently falls back to the in-RAM loader; Mapped reports which one won.
func Open(path string, opts ...Option) (*Checkpoint, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	c, err := open(f, path, o)
	if err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

func open(f *os.File, path string, o options) (*Checkpoint, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	hbuf := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerSize), hbuf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	h, err := decodeHeader(hbuf)
	if err != nil {
		return nil, err
	}
	if int64(h.fileSize) != size {
		return nil, fmt.Errorf("%w: header says %d bytes, file has %d", ErrFormat, h.fileSize, size)
	}
	// Compare without h.tableOff+h.tableLen: the uint64 sum can wrap for a
	// crafted header and slip past a naive end check.
	if h.tableLen > 1<<30 || h.tableOff > h.fileSize || h.tableLen > h.fileSize-h.tableOff {
		return nil, fmt.Errorf("%w: section table at offset %d (%d bytes) exceeds file", ErrFormat, h.tableOff, h.tableLen)
	}
	table := make([]byte, h.tableLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, int64(h.tableOff), int64(h.tableLen)), table); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if crc := crc32.ChecksumIEEE(table); crc != h.tableCRC {
		return nil, fmt.Errorf("%w: section table CRC mismatch (%08x != %08x)", ErrFormat, crc, h.tableCRC)
	}
	layers, err := decodeTable(table, int(h.layers), size)
	if err != nil {
		return nil, err
	}

	c := &Checkpoint{path: path, f: f, layers: layers, dirty: make([]bool, len(layers))}
	if !o.inRAM {
		if data, ok := mmapFile(f, size); ok {
			c.data = data
			c.mapped = true
		}
	}
	if c.data == nil {
		buf := make([]byte, size)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		c.data = buf
	}
	c.q = make([][]int8, len(layers))
	for i, l := range layers {
		c.q[i] = bytesToInt8(c.data[l.off : l.off+l.weights])
	}
	return c, nil
}

// Model returns the quantized model backed by the checkpoint's sections:
// Layer.Q slices alias the mapping directly (zero-copy), Param is nil
// until the caller attaches a float network (quant.Model.Attach). The
// model is built once; the checkpoint observes it so writes made through
// the model API mark their layers dirty for SyncDirty.
func (c *Checkpoint) Model() *quant.Model {
	c.modelOnce.Do(func() {
		m := &quant.Model{}
		for i, l := range c.layers {
			m.Layers = append(m.Layers, &quant.Layer{
				Name:   l.name,
				Q:      c.q[i],
				Scale:  l.scale,
				Scales: l.scales,
			})
		}
		c.unobserve = m.Observe(c.MarkLayerDirty)
		c.model = m
	})
	return c.model
}

// Mapped reports whether the checkpoint is mmap-backed (true) or loaded
// into RAM by the fallback path (false).
func (c *Checkpoint) Mapped() bool { return c.mapped }

// Size returns the checkpoint file size in bytes.
func (c *Checkpoint) Size() int64 { return int64(len(c.data)) }

// WeightBytes returns the total weight payload (one byte per int8 weight).
func (c *Checkpoint) WeightBytes() int64 {
	var n int64
	for _, l := range c.layers {
		n += l.weights
	}
	return n
}

// NumLayers returns the number of layer sections.
func (c *Checkpoint) NumLayers() int { return len(c.layers) }

// MarkLayerDirty records that layer li's weights changed, scheduling its
// section for the next SyncDirty. Writes made through the quant.Model API
// are tracked automatically via the model observer; callers that mutate
// Layer.Q directly use this, mirroring core.Protector.MarkLayerDirty.
func (c *Checkpoint) MarkLayerDirty(li int) {
	c.mu.Lock()
	if li >= 0 && li < len(c.dirty) {
		c.dirty[li] = true
	}
	c.mu.Unlock()
}

// SyncLayer makes layer li's current bytes durable: msync on the mapped
// path, a positional write-back on the RAM fallback.
func (c *Checkpoint) SyncLayer(li int) error {
	if li < 0 || li >= len(c.layers) {
		return fmt.Errorf("store: layer %d out of range", li)
	}
	return c.syncRange(c.layers[li].off, c.layers[li].weights)
}

// Sync makes every section durable.
func (c *Checkpoint) Sync() error {
	for li := range c.layers {
		if err := c.SyncLayer(li); err != nil {
			return err
		}
	}
	return nil
}

// SyncDirty flushes exactly the layers written since the last sync (via
// the model observer or MarkLayerDirty). Flags are cleared before the
// flush reads the bytes, so a write landing mid-sync re-marks its layer
// for the next round — the same discipline ScanDirty uses.
func (c *Checkpoint) SyncDirty() error {
	c.mu.Lock()
	var todo []int
	for li, d := range c.dirty {
		if d {
			todo = append(todo, li)
			c.dirty[li] = false
		}
	}
	c.mu.Unlock()
	for _, li := range todo {
		if err := c.SyncLayer(li); err != nil {
			return err
		}
	}
	return nil
}

// syncRange flushes [off, off+n) of the checkpoint. The mapped path hands
// msync a range rounded down to the OS page size (sections are PageSize
// aligned in the file, which matches or divides the OS page on mainstream
// platforms).
func (c *Checkpoint) syncRange(off, n int64) error {
	if c.mapped {
		lo := off &^ int64(osPageSize()-1)
		return msyncRange(c.data[lo : off+n])
	}
	_, err := c.f.WriteAt(c.data[off:off+n], off)
	return err
}

// ReleaseLayer drops layer li's pages from the process's resident set
// (madvise MADV_DONTNEED on the mapped range). On a shared file mapping
// this never discards data — dirty pages live in the page cache and are
// re-faulted on the next access — it only caps the RSS high-water mark,
// which is what lets a scan stream over a checkpoint far larger than
// memory. Best-effort: a no-op on the RAM fallback and on alignment or
// kernel refusals. Typical use is a Config.OnLayerScanned hook in
// internal/core, releasing each layer as its scan pass completes.
func (c *Checkpoint) ReleaseLayer(li int) {
	if !c.mapped || li < 0 || li >= len(c.layers) {
		return
	}
	l := c.layers[li]
	lo := l.off
	hi := pageAlign(l.off + l.weights)
	if hi > int64(len(c.data)) {
		hi = int64(len(c.data))
	}
	ps := int64(osPageSize())
	if lo%ps != 0 {
		lo = (lo + ps - 1) &^ (ps - 1)
	}
	hi = hi &^ (ps - 1)
	if lo >= hi {
		return
	}
	madviseRange(c.data[lo:hi], adviceDontNeed)
}

// AdviseSequential hints the kernel that the mapping will be read
// front-to-back (readahead-friendly). Best-effort.
func (c *Checkpoint) AdviseSequential() {
	if c.mapped {
		madviseRange(c.data, adviceSequential)
	}
}

// Close detaches the model observer, unmaps (or drops) the weight buffer
// and closes the file. It does not implicitly sync: callers that want
// in-memory writes to be durable must Sync first (munmap of a shared
// mapping lets the kernel write dirty pages back eventually, but Close's
// contract is only that the mapping is gone). Every []int8 obtained from
// Model is invalid after Close; touching one faults on the mapped path.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.unobserve != nil {
		c.unobserve()
	}
	var err error
	if c.mapped {
		err = munmapFile(c.data)
	}
	c.data = nil
	c.q = nil
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// bytesToInt8 reinterprets a byte slice as int8 without copying.
func bytesToInt8(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}

// int8ToBytes reinterprets an int8 slice as bytes without copying.
func int8ToBytes(q []int8) []byte {
	if len(q) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&q[0])), len(q))
}
