package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"radar/internal/core"
	"radar/internal/quant"
)

// testModel builds a synthetic quantized model (no float side) with layer
// sizes chosen to stress the format: a multi-page layer, a sub-page layer,
// and a tail layer whose length is not a multiple of 8 and crosses a page
// boundary — the SWAR kernel's scalar-tail case landing on an mmap page
// edge.
func testModel(seed int64) *quant.Model {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{3 * PageSize, 100, 2*PageSize + 1} // 8193 = l%8 ≠ 0 across a page boundary
	m := &quant.Model{}
	for i, n := range sizes {
		l := &quant.Layer{
			Name:  []string{"stage1.conv.weight", "stage2.conv.weight", "fc.weight"}[i],
			Q:     make([]int8, n),
			Scale: float32(i+1) * 0.01,
		}
		if i == 1 {
			l.Scales = []float32{0.01, 0.02, 0.03}
		}
		for j := range l.Q {
			l.Q[j] = int8(rng.Intn(256) - 128)
		}
		m.Layers = append(m.Layers, l)
	}
	return m
}

func saveTestModel(t *testing.T, seed int64) (string, *quant.Model) {
	t.Helper()
	m := testModel(seed)
	path := filepath.Join(t.TempDir(), "ckpt.radar")
	if err := Save(path, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path, m
}

func TestSaveOpenRoundTrip(t *testing.T) {
	for _, mode := range []string{"mapped", "inram"} {
		t.Run(mode, func(t *testing.T) {
			path, m := saveTestModel(t, 1)
			var opts []Option
			if mode == "inram" {
				opts = append(opts, InRAM())
			}
			c, err := Open(path, opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer c.Close()
			if mode == "inram" && c.Mapped() {
				t.Fatal("InRAM checkpoint reports Mapped")
			}
			got := c.Model()
			if got != c.Model() {
				t.Fatal("Model is not memoized")
			}
			if len(got.Layers) != len(m.Layers) {
				t.Fatalf("layer count %d != %d", len(got.Layers), len(m.Layers))
			}
			var wantBytes int64
			for i, l := range m.Layers {
				g := got.Layers[i]
				if g.Name != l.Name || g.Scale != l.Scale || !reflect.DeepEqual(g.Scales, l.Scales) {
					t.Fatalf("layer %d metadata mismatch: %+v", i, g)
				}
				if !reflect.DeepEqual(g.Q, l.Q) {
					t.Fatalf("layer %d weights differ", i)
				}
				if g.Param != nil {
					t.Fatalf("layer %d has a float param before Attach", i)
				}
				wantBytes += int64(len(l.Q))
			}
			if c.NumLayers() != len(m.Layers) || c.WeightBytes() != wantBytes {
				t.Fatalf("NumLayers=%d WeightBytes=%d", c.NumLayers(), c.WeightBytes())
			}
			if c.Size() <= wantBytes {
				t.Fatalf("Size %d not larger than payload %d", c.Size(), wantBytes)
			}
		})
	}
}

// TestDifferentialScan pins the acceptance criterion that the mmap-backed
// reader is byte-identical to the in-RAM loader: golden signatures, the
// scalar reference kernel over every layer (including the l%8≠0 tail), and
// the flagged-group list after identical injected flips must all match.
func TestDifferentialScan(t *testing.T) {
	path, _ := saveTestModel(t, 2)
	cm, err := Open(path)
	if err != nil {
		t.Fatalf("Open mapped: %v", err)
	}
	defer cm.Close()
	cr, err := Open(path, InRAM())
	if err != nil {
		t.Fatalf("Open in-RAM: %v", err)
	}
	defer cr.Close()

	cfg := core.DefaultConfig(8)
	pm := core.Protect(cm.Model(), cfg)
	pr := core.Protect(cr.Model(), cfg)
	if !reflect.DeepEqual(pm.Golden, pr.Golden) {
		t.Fatal("golden signatures differ between mapped and in-RAM readers")
	}
	// Property-test harness: the scalar reference kernel over random
	// subranges of the mapped view must match the in-RAM view exactly.
	rng := rand.New(rand.NewSource(99))
	for li, lm := range cm.Model().Layers {
		lr := cr.Model().Layers[li]
		s := pm.Schemes[li]
		for trial := 0; trial < 50; trial++ {
			ng := s.NumGroups(len(lm.Q))
			lo := rng.Intn(ng + 1)
			hi := lo + rng.Intn(ng-lo+1)
			got := s.SignaturesRangeRef(lm.Q, lo, hi)
			want := s.SignaturesRangeRef(lr.Q, lo, hi)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("layer %d signatures differ on [%d,%d)", li, lo, hi)
			}
		}
	}
	// Identical injected flips must flag identical groups. The flips
	// include the final weight of the tail layer (index l-1 with l%8≠0,
	// sitting just past an mmap page boundary).
	tail := len(cm.Model().Layers) - 1
	flips := []quant.BitAddress{
		{LayerIndex: 0, WeightIndex: 17, Bit: quant.MSB},
		{LayerIndex: 1, WeightIndex: 3, Bit: 6},
		{LayerIndex: tail, WeightIndex: len(cm.Model().Layers[tail].Q) - 1, Bit: quant.MSB},
	}
	for _, a := range flips {
		cm.Model().FlipBit(a)
		cr.Model().FlipBit(a)
	}
	fm := pm.Scan()
	fr := pr.Scan()
	if len(fm) == 0 || !reflect.DeepEqual(fm, fr) {
		t.Fatalf("flagged groups differ: mapped %v, in-RAM %v", fm, fr)
	}
}

// TestRecoveryPersists pins the acceptance criterion that flip-inject →
// detect → recover round-trips on mapped weights and the recovery writes
// reach the file: after Sync and Close, a fresh reader sees the recovered
// (zeroed) image and a fresh scan comes back clean.
func TestRecoveryPersists(t *testing.T) {
	for _, mode := range []string{"mapped", "inram"} {
		t.Run(mode, func(t *testing.T) {
			path, _ := saveTestModel(t, 3)
			var opts []Option
			if mode == "inram" {
				opts = append(opts, InRAM())
			}
			c, err := Open(path, opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if mode == "mapped" && !c.Mapped() {
				t.Skip("mmap unavailable on this platform/filesystem")
			}
			m := c.Model()
			cfg := core.DefaultConfig(8)
			p := core.Protect(m, cfg)
			flips := []quant.BitAddress{
				{LayerIndex: 0, WeightIndex: 4097, Bit: quant.MSB},
				{LayerIndex: 2, WeightIndex: len(m.Layers[2].Q) - 1, Bit: quant.MSB},
			}
			for _, a := range flips {
				m.FlipBit(a)
			}
			flagged, zeroed := p.DetectAndRecover()
			if p.CountDetected(flips, flagged) != len(flips) {
				t.Fatalf("not all flips detected: flagged %v", flagged)
			}
			if zeroed == 0 {
				t.Fatal("recovery zeroed nothing")
			}
			if f := p.Scan(); len(f) != 0 {
				t.Fatalf("post-recovery scan flagged %v", f)
			}
			if err := c.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// A fresh in-RAM reader (no mmap aliasing) must see the
			// recovered image: the flipped weights are zero and a fresh
			// protector under the same config scans clean.
			c2, err := Open(path, InRAM())
			if err != nil {
				t.Fatalf("re-Open: %v", err)
			}
			defer c2.Close()
			m2 := c2.Model()
			for _, a := range flips {
				if got := m2.Layers[a.LayerIndex].Q[a.WeightIndex]; got != 0 {
					t.Fatalf("weight %v = %d after recovery+sync, want 0", a, got)
				}
			}
			if f := core.Protect(m2, cfg).Scan(); len(f) != 0 {
				t.Fatalf("fresh scan of synced file flagged %v", f)
			}
		})
	}
}

// TestSyncDirtySelective verifies SyncDirty flushes exactly the layers the
// observer (or MarkLayerDirty) recorded. The in-RAM fallback makes
// selectivity observable: a direct Q mutation that is never marked must not
// reach the file, while a model-API write on another layer must.
func TestSyncDirtySelective(t *testing.T) {
	path, _ := saveTestModel(t, 4)
	c, err := Open(path, InRAM())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	m := c.Model()
	m.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 5, Bit: 3}) // observer marks layer 0
	m.Layers[1].Q[7] = m.Layers[1].Q[7] + 1                            // unmarked direct write
	if err := c.SyncDirty(); err != nil {
		t.Fatalf("SyncDirty: %v", err)
	}
	check, err := Open(path, InRAM())
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	if got, want := check.Model().Layers[0].Q[5], m.Layers[0].Q[5]; got != want {
		t.Fatalf("dirty layer not flushed: %d != %d", got, want)
	}
	if got := check.Model().Layers[1].Q[7]; got == m.Layers[1].Q[7] {
		t.Fatal("clean layer was flushed by SyncDirty")
	}
	check.Close()
	// MarkWritten (the out-of-band notification recovery uses) must reach
	// the checkpoint's dirty tracking through the same observer.
	m.MarkWritten(1)
	if err := c.SyncDirty(); err != nil {
		t.Fatalf("SyncDirty: %v", err)
	}
	check2, err := Open(path, InRAM())
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer check2.Close()
	if got := check2.Model().Layers[1].Q[7]; got != m.Layers[1].Q[7] {
		t.Fatal("MarkWritten layer not flushed by SyncDirty")
	}
	// A second SyncDirty with nothing dirty is a no-op that still succeeds.
	if err := c.SyncDirty(); err != nil {
		t.Fatalf("idle SyncDirty: %v", err)
	}
}

// TestReleaseLayerKeepsData pins that ReleaseLayer is a pure RSS release on
// the shared mapping: the layer's bytes (including un-synced in-memory
// writes, which live in the page cache) survive release and re-fault.
func TestReleaseLayerKeepsData(t *testing.T) {
	path, orig := saveTestModel(t, 5)
	c, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	if !c.Mapped() {
		t.Skip("mmap unavailable on this platform/filesystem")
	}
	m := c.Model()
	m.Layers[0].Q[123] = 77 // dirty page in the page cache, not yet synced
	c.AdviseSequential()
	for li := range m.Layers {
		c.ReleaseLayer(li)
	}
	if got := m.Layers[0].Q[123]; got != 77 {
		t.Fatalf("released page lost an in-memory write: %d", got)
	}
	for i, l := range m.Layers {
		want := orig.Layers[i].Q
		for j, q := range l.Q {
			if i == 0 && j == 123 {
				continue
			}
			if q != want[j] {
				t.Fatalf("layer %d weight %d corrupted after release: %d != %d", i, j, q, want[j])
			}
		}
	}
}

func TestWriterErrors(t *testing.T) {
	dir := t.TempDir()
	newWriter := func(name string) *Writer {
		w, err := Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return w
	}
	t.Run("write before AddLayer", func(t *testing.T) {
		w := newWriter("a")
		if _, err := w.Write([]byte{1}); err == nil {
			t.Fatal("Write before AddLayer succeeded")
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close after error succeeded")
		}
	})
	t.Run("underfill", func(t *testing.T) {
		w := newWriter("b")
		if err := w.AddLayer("l0", 1, nil, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(make([]byte, 9)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close of an underfilled layer succeeded")
		}
	})
	t.Run("underfill at next AddLayer", func(t *testing.T) {
		w := newWriter("c")
		if err := w.AddLayer("l0", 1, nil, 10); err != nil {
			t.Fatal(err)
		}
		if err := w.AddLayer("l1", 1, nil, 10); err == nil {
			t.Fatal("AddLayer over an underfilled layer succeeded")
		}
		w.Close()
	})
	t.Run("overflow", func(t *testing.T) {
		w := newWriter("d")
		if err := w.AddLayer("l0", 1, nil, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(make([]byte, 5)); err == nil {
			t.Fatal("overflowing Write succeeded")
		}
		w.Close()
	})
	t.Run("duplicate name", func(t *testing.T) {
		w := newWriter("e")
		if err := w.AddLayer("l0", 1, nil, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := w.AddLayer("l0", 1, nil, 1); err == nil {
			t.Fatal("duplicate AddLayer succeeded")
		}
		w.Close()
	})
	t.Run("empty name and zero weights", func(t *testing.T) {
		w := newWriter("f")
		if err := w.AddLayer("", 1, nil, 1); err == nil {
			t.Fatal("empty layer name accepted")
		}
		w = newWriter("g")
		if err := w.AddLayer("l0", 1, nil, 0); err == nil {
			t.Fatal("zero-weight layer accepted")
		}
	})
	t.Run("no layers", func(t *testing.T) {
		w := newWriter("h")
		if err := w.Close(); err == nil {
			t.Fatal("Close of an empty checkpoint succeeded")
		}
	})
	t.Run("double Close", func(t *testing.T) {
		w := newWriter("i")
		if err := w.AddLayer("l0", 1, nil, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("second Close succeeded")
		}
	})
}

func TestOpenRejectsCorruption(t *testing.T) {
	path, _ := saveTestModel(t, 6)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(pristine)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, mutate func(b []byte) []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.radar")
		if err := os.WriteFile(p, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(p)
		if err == nil {
			c.Close()
		}
		return err
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[8] ^= 0xFF; return b }},
		{"bad page size", func(b []byte) []byte { b[12] ^= 0xFF; return b }},
		{"table CRC mismatch", func(b []byte) []byte { b[h.tableOff] ^= 0xFF; return b }},
		{"truncated file", func(b []byte) []byte { return b[:len(b)-1] }},
		{"short header", func(b []byte) []byte { return b[:headerSize-1] }},
		// The layer count is outside the table CRC; 2³²−1 of them once sized
		// a ~300 GB allocation before the table was read.
		{"layer count exceeds table", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 1<<32-1)
			return b
		}},
		// A crafted first entry whose off is page-aligned and huge enough
		// that off+weights wraps int64 negative, with the table CRC fixed up
		// so only the geometry check can reject it.
		{"section offset overflow", func(b []byte) []byte {
			le := binary.LittleEndian
			pos := int(h.tableOff)
			pos += 2 + int(le.Uint16(b[pos:])) // name length + name
			pos += 4                           // scale
			nScales := int(le.Uint32(b[pos:]))
			pos += 4 + 4*nScales
			le.PutUint64(b[pos:], 1<<63-PageSize)
			le.PutUint32(b[20:], crc32.ChecksumIEEE(b[h.tableOff:h.tableOff+h.tableLen]))
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := corrupt(t, tc.mutate)
			if err == nil {
				t.Fatal("Open accepted a corrupt checkpoint")
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v does not wrap ErrFormat", err)
			}
		})
	}
	// Weight corruption inside a section is the scan's job, not Open's:
	// the file still opens, and the protector flags the damage.
	p2 := filepath.Join(t.TempDir(), "flipped.radar")
	flipped := append([]byte(nil), pristine...)
	flipped[PageSize+42] ^= 1 << quant.MSB
	if err := os.WriteFile(p2, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(p2)
	if err != nil {
		t.Fatalf("Open rejected weight-level corruption: %v", err)
	}
	defer c.Close()
}

func TestCloseInvalidatesAndIdempotent(t *testing.T) {
	path, _ := saveTestModel(t, 7)
	c, err := Open(path, InRAM())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// FuzzStoreOpen feeds Open mutated checkpoint files: whatever the bytes,
// Open never panics, and a file it accepts builds a model whose weight
// payload fits inside the file.
func FuzzStoreOpen(f *testing.F) {
	m := &quant.Model{Layers: []*quant.Layer{
		{Name: "conv.weight", Q: []int8{1, -2, 3, -128, 127}, Scale: 0.5, Scales: []float32{0.25, 0.5}},
		{Name: "fc.weight", Q: []int8{7, 0, -7}, Scale: 0.125},
	}}
	path := filepath.Join(f.TempDir(), "seed.radar")
	if err := Save(path, m); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{len(valid) - 1, len(valid) / 2, PageSize, headerSize, headerSize - 1, 0} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.radar")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(p, InRAM())
		if err != nil {
			return
		}
		defer c.Close()
		if got := len(c.Model().Layers); got != c.NumLayers() {
			t.Fatalf("model has %d layers, checkpoint %d", got, c.NumLayers())
		}
		if c.WeightBytes() > c.Size() {
			t.Fatalf("%d weight bytes in a %d-byte file", c.WeightBytes(), c.Size())
		}
	})
}
