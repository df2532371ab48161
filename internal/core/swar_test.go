package core

import (
	"math/rand"
	"slices"
	"testing"

	"radar/internal/cpu"
)

// kernelLeg is one setting of swarAVX2, the switch the interleaved kernel
// reads.
type kernelLeg struct {
	name string
	avx2 bool
}

// kernelLegs lists the checksum legs this host can run — the pure-Go loop
// everywhere, the AVX2 one where internal/cpu's probe offers it — for tests
// and benchmarks that switch swarAVX2 to cover both from one binary; the
// host's own choice is restored when tb ends.
func kernelLegs(tb testing.TB) []kernelLeg {
	live := swarAVX2
	tb.Cleanup(func() { swarAVX2 = live })
	legs := []kernelLeg{{"generic", false}}
	if cpu.AVX2 {
		legs = append(legs, kernelLeg{"avx2", true})
	}
	return legs
}

// eachKernel runs f as one subtest per leg.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, leg := range kernelLegs(t) {
		t.Run("kernel="+leg.name, func(t *testing.T) {
			swarAVX2 = leg.avx2
			f(t)
		})
	}
}

// benchKernels runs f as one sub-benchmark per leg, so old and new are
// measured from one binary.
func benchKernels(b *testing.B, f func(b *testing.B)) {
	for _, leg := range kernelLegs(b) {
		b.Run("kernel="+leg.name, func(b *testing.B) {
			swarAVX2 = leg.avx2
			f(b)
		})
	}
}

// refSignatures is the slowest, most obviously correct implementation:
// one per-group Checksum (itself a scalar VisitMembers walk) per group.
func refSignatures(s Scheme, q []int8) []uint8 {
	out := make([]uint8, s.NumGroups(len(q)))
	for j := range out {
		out[j] = s.Binarize(s.Checksum(q, j))
	}
	return out
}

// swarGeometries spans the shapes that stress the SWAR kernels: word-sized
// and sub-word groups, ragged l%8 ≠ 0 tails, G > l single-group layers,
// group counts around the 8-lane chunk width, and lengths that put the
// interleaved ring wrap in every position.
func swarGeometries() []struct{ g, l int } {
	return []struct{ g, l int }{
		{1, 1}, {1, 17}, {2, 15}, {3, 100}, {5, 64}, {7, 49},
		{8, 8}, {8, 64}, {8, 65}, {8, 1000}, {16, 1024}, {17, 389},
		{512, 512}, {512, 4096}, {512, 4100}, {512, 100000},
		{100, 7}, {1000, 999}, {64, 8192}, {511, 65536}, {513, 65521},
	}
}

// TestSWARMatchesChecksumReference pins the word-parallel Signatures path
// bit-identical to the per-group Checksum reference across group size,
// interleaving, offset, key and ragged-tail lengths.
func TestSWARMatchesChecksumReference(t *testing.T) {
	eachKernel(t, testSWARMatchesChecksumReference)
}

func testSWARMatchesChecksumReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, geo := range swarGeometries() {
		for _, interleave := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				s := Scheme{
					G:          geo.g,
					Interleave: interleave,
					Offset:     DefaultOffset + rng.Intn(8),
					Key:        uint16(rng.Intn(1 << KeyBits)),
					SigBits:    2 + rng.Intn(2),
				}
				q := randWeights(rng, geo.l)
				want := refSignatures(s, q)
				got := s.Signatures(q)
				if len(got) != len(want) {
					t.Fatalf("G=%d l=%d interleave=%v: %d signatures, want %d",
						geo.g, geo.l, interleave, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("G=%d l=%d interleave=%v offset=%d key=%#x group %d: SWAR %03b, reference %03b (checksum %d)",
							geo.g, geo.l, interleave, s.Offset, s.Key, j, got[j], want[j], s.Checksum(q, j))
					}
				}
			}
		}
	}
}

// TestSWARMatchesScalarRangeKernel pins SignaturesRange against the
// retained scalar row-walk SignaturesRangeRef on random subranges — the
// exact per-shard unit the parallel engine runs.
func TestSWARMatchesScalarRangeKernel(t *testing.T) {
	eachKernel(t, testSWARMatchesScalarRangeKernel)
}

func testSWARMatchesScalarRangeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, geo := range swarGeometries() {
		for _, interleave := range []bool{false, true} {
			s := Scheme{
				G:          geo.g,
				Interleave: interleave,
				Offset:     DefaultOffset + rng.Intn(8),
				Key:        uint16(rng.Intn(1 << KeyBits)),
				SigBits:    2 + rng.Intn(2),
			}
			q := randWeights(rng, geo.l)
			n := s.NumGroups(geo.l)
			for trial := 0; trial < 8; trial++ {
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				got := s.SignaturesRange(q, lo, hi)
				want := s.SignaturesRangeRef(q, lo, hi)
				if len(got) != len(want) {
					t.Fatalf("G=%d l=%d interleave=%v [%d,%d): len %d vs %d",
						geo.g, geo.l, interleave, lo, hi, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("G=%d l=%d interleave=%v key=%#x [%d,%d): group %d differs",
							geo.g, geo.l, interleave, s.Key, lo, hi, lo+k)
					}
				}
			}
		}
	}
}

// TestSWARLaneSaturation drives every 16-bit lane of the interleaved
// kernel through 2¹⁶ many times over — constant extreme weights under
// all-plus, all-minus and mixed keys add 255 (or 0) per row for up to 4096
// rows, where random weights at G ≤ 513 barely reach the wrap — so the
// bit-15 clearing and the mod-512 settlement are what is under test.
func TestSWARLaneSaturation(t *testing.T) {
	eachKernel(t, testSWARLaneSaturation)
}

func testSWARLaneSaturation(t *testing.T) {
	for _, g := range []int{512, 1000, 4096} {
		for _, w := range []int8{127, -128} {
			for _, key := range []uint16{0x0000, 0xFFFF, 0xA5C3} {
				for _, sigBits := range []int{2, 3} {
					q := make([]int8, g*19+5) // 20 groups, ragged last row
					for i := range q {
						q[i] = w
					}
					s := Scheme{G: g, Interleave: true, Offset: DefaultOffset, Key: key, SigBits: sigBits}
					want := refSignatures(s, q)
					if got := s.Signatures(q); !slices.Equal(got, want) {
						t.Fatalf("G=%d w=%d key=%#x sigBits=%d: SWAR %v, reference %v", g, w, key, sigBits, got, want)
					}
					pl := s.compile(len(q))
					if !pl.verify(q, want) {
						t.Fatalf("G=%d w=%d key=%#x sigBits=%d: verify rejects the reference signatures", g, w, key, sigBits)
					}
				}
			}
		}
	}
}

// TestLaneMaskCompilation checks the compiled per-phase masks against the
// keystream bit by bit: +1 positions carry the plain excess-128 bias 0x80,
// −1 positions compose it with the byte-wise NOT (0x7F), and the phase
// bias is the closed-form constant one masked word contributes.
func TestLaneMaskCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 64; trial++ {
		key := uint16(rng.Intn(1 << KeyBits))
		lm := compileLaneMasks(key)
		s := Scheme{G: 16, Key: key, SigBits: 2}
		for ph := 0; ph < 2; ph++ {
			var wantBias int32
			for b := 0; b < 8; b++ {
				lane := uint8(lm.xor[ph] >> (8 * b))
				if s.maskSign(ph*8+b) == 1 {
					if lane != 0x80 {
						t.Fatalf("key %#x phase %d byte %d: lane %#x, want 0x80", key, ph, b, lane)
					}
					wantBias += 128
				} else {
					if lane != 0x7F {
						t.Fatalf("key %#x phase %d byte %d: lane %#x, want 0x7F", key, ph, b, lane)
					}
					wantBias += 127
				}
			}
			if lm.bias[ph] != wantBias {
				t.Fatalf("key %#x phase %d: bias %d, want %d", key, ph, lm.bias[ph], wantBias)
			}
		}
	}
}

// TestVisitMembersMatchesMembers pins the allocation-free iteration path
// to the slice-returning Members across both grouping modes.
func TestVisitMembersMatchesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, geo := range swarGeometries() {
		for _, interleave := range []bool{false, true} {
			s := Scheme{G: geo.g, Interleave: interleave, Offset: DefaultOffset + rng.Intn(4), Key: 0xBEEF, SigBits: 2}
			for j := 0; j < s.NumGroups(geo.l); j++ {
				want := s.Members(j, geo.l)
				var got []int
				lastT := -1
				s.VisitMembers(j, geo.l, func(tt, i int) {
					if tt != lastT+1 {
						t.Fatalf("G=%d l=%d group %d: position %d after %d", geo.g, geo.l, j, tt, lastT)
					}
					lastT = tt
					got = append(got, i)
				})
				if len(got) != len(want) {
					t.Fatalf("G=%d l=%d group %d: %d members, want %d", geo.g, geo.l, j, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("G=%d l=%d group %d member %d: %d, want %d", geo.g, geo.l, j, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestChecksumAllocationFree verifies the satellite fix: the per-group
// checksum and the recovery member walk no longer allocate a Members
// slice per call.
func TestChecksumAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := randWeights(rng, 4096)
	for _, interleave := range []bool{false, true} {
		s := Scheme{G: 64, Interleave: interleave, Offset: DefaultOffset, Key: 0xBEEF, SigBits: 2}
		var sink int32
		allocs := testing.AllocsPerRun(100, func() {
			sink += s.Checksum(q, 3)
		})
		if allocs != 0 {
			t.Errorf("interleave=%v: Checksum allocates %.1f objects per call, want 0", interleave, allocs)
		}
		_ = sink
	}
}

// TestScanZeroAlloc verifies the arena satellite: with a single worker
// (no goroutine fan-out) a steady-state full Scan, an incremental
// ScanDirty and a DetectAndRecover of a clean model allocate nothing — the scratch pool and the
// register-resident kernels absorb all working memory.
func TestScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items randomly under the race detector; allocation counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(13))
	m := syntheticModel(rng, []int{100000, 4096, 9408})
	cfg := DefaultConfig(512)
	cfg.Workers = 1
	p := Protect(m, cfg)
	p.Scan() // warm the pools
	if allocs := testing.AllocsPerRun(20, func() {
		if flagged := p.Scan(); len(flagged) != 0 {
			t.Fatal("clean model flagged")
		}
	}); allocs != 0 {
		t.Errorf("steady-state Scan allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		p.MarkLayerDirty(0)
		if flagged := p.ScanDirty(); len(flagged) != 0 {
			t.Fatal("clean model flagged")
		}
	}); allocs != 0 {
		t.Errorf("steady-state dirty ScanDirty allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if flagged := p.ScanDirty(); flagged != nil {
			t.Fatal("clean ScanDirty returned non-nil")
		}
	}); allocs != 0 {
		t.Errorf("clean ScanDirty allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if flagged, _ := p.DetectAndRecover(); len(flagged) != 0 {
			t.Fatal("clean model flagged")
		}
	}); allocs != 0 {
		t.Errorf("clean DetectAndRecover allocates %.1f objects per run, want 0", allocs)
	}
}

// FuzzSignatures is the differential fuzz target behind the property
// tests: arbitrary weights and scheme parameters, each SWAR leg vs the
// per-group Checksum reference. CI runs the seed corpus under -race on
// every push; `go test -fuzz=FuzzSignatures ./internal/core` explores
// further.
func FuzzSignatures(f *testing.F) {
	f.Add([]byte{1, 255, 3, 128, 5, 6, 7, 8, 9}, uint16(0xBEEF), 8, 3, true, 2, 0, 1<<30)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(0), 1, 0, false, 2, 0, 1<<30)
	f.Add([]byte{127, 128, 64, 32}, uint16(0xFFFF), 512, 6, true, 2, 0, 1<<30)
	ramp := make([]byte, 200)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	f.Add(ramp, uint16(0x1234), 4, 0, true, 3, 3, 16)  // offset 0: every row wraps in the same word
	f.Add(ramp, uint16(0x8001), 7, 5, true, 3, 11, 24) // ragged last row, 13 groups
	f.Add(ramp, uint16(0x00FF), 9, 1, false, 3, 2, 7)
	legs := kernelLegs(f)
	f.Fuzz(func(t *testing.T, raw []byte, key uint16, g, offset int, interleave bool, sigBits, lo, hi int) {
		if len(raw) == 0 || g <= 0 || g > 4096 || offset < 0 || offset > 64 || (sigBits != 2 && sigBits != 3) {
			t.Skip()
		}
		q := make([]int8, len(raw))
		for i, b := range raw {
			q[i] = int8(b)
		}
		s := Scheme{G: g, Interleave: interleave, Offset: offset, Key: key, SigBits: sigBits}
		hi = min(hi, s.NumGroups(len(q)))
		if lo < 0 || lo >= hi {
			t.Skip()
		}
		want := refSignatures(s, q)[lo:hi]
		for _, leg := range legs {
			swarAVX2 = leg.avx2
			got := s.SignaturesRange(q, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("%s [%d,%d): %d signatures, want %d", leg.name, lo, hi, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s G=%d offset=%d key=%#x interleave=%v sigBits=%d l=%d [%d,%d) group %d: SWAR %03b, reference %03b",
						leg.name, g, offset, key, interleave, sigBits, len(q), lo, hi, lo+k, got[k], want[k])
				}
			}
		}
	})
}

// BenchmarkSignatureScan measures RADAR's software checksum throughput —
// the SWAR kernel, once per leg — over a 4 MiB weight image at G=512,
// interleaved.
func BenchmarkSignatureScan(b *testing.B) {
	benchSignatures(b, Scheme{G: 512, Interleave: true, Offset: 3, Key: 0xBEEF, SigBits: 2})
}

// BenchmarkSignatureScanPlain is the non-interleaved variant.
func BenchmarkSignatureScanPlain(b *testing.B) {
	benchSignatures(b, Scheme{G: 512, Offset: 3, Key: 0xBEEF, SigBits: 2})
}

func benchSignatures(b *testing.B, s Scheme) {
	q := make([]int8, 1<<22) // 4 MiB layer
	for i := range q {
		q[i] = int8(i * 31)
	}
	benchKernels(b, func(b *testing.B) {
		b.SetBytes(int64(len(q)))
		for i := 0; i < b.N; i++ {
			s.Signatures(q)
		}
	})
}

// BenchmarkSignatureScanRef runs the retained scalar row-walk kernel over
// the same image — the in-tree "old kernel" baseline the SWAR speedup is
// measured against.
func BenchmarkSignatureScanRef(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := Scheme{G: 512, Interleave: true, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignaturesRangeRef(q, 0, s.NumGroups(len(q)))
	}
}

// BenchmarkSignatureScanPlainRef is the scalar non-interleaved baseline.
func BenchmarkSignatureScanPlainRef(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := Scheme{G: 512, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignaturesRangeRef(q, 0, s.NumGroups(len(q)))
	}
}
