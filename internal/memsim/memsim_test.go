package memsim

import (
	"testing"

	"radar/internal/model"
)

func TestCacheHitsAfterInstall(t *testing.T) {
	c := NewCache(1024, 64, 2)
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("second access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access must hit")
	}
	if c.Access(64) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 1 set of interest: three conflicting lines evict the oldest.
	c := NewCache(128, 64, 2) // 1 set, 2 ways
	c.Access(0)               // line A
	c.Access(64)              // line B
	c.Access(0)               // touch A (B becomes LRU)
	c.Access(128)             // line C evicts B
	if !c.Access(0) {
		t.Fatal("A should still be resident")
	}
	if c.Access(64) {
		t.Fatal("B should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	// A working set equal to capacity must fully hit on the second pass.
	c := NewCache(4096, 64, 4)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(a)
		}
	}
	if c.Misses != 64 {
		t.Fatalf("misses = %d, want 64 (cold only)", c.Misses)
	}
	if c.Hits != 64 {
		t.Fatalf("hits = %d, want 64", c.Hits)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, 64, 2)
	c.Access(0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("counters not reset")
	}
	if c.Access(0) {
		t.Fatal("contents not reset")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy()
	// Cold: L1 miss + L2 miss → 1+10+30.
	if lat := h.Access(0); lat != 41 {
		t.Fatalf("cold latency = %d, want 41", lat)
	}
	// Warm: L1 hit.
	if lat := h.Access(1); lat != 1 {
		t.Fatalf("warm latency = %d, want 1", lat)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy()
	// Fill beyond L1 (32 KB) but within L2 (64 KB), then revisit the start:
	// it must be an L1 miss / L2 hit → 1+10 cycles.
	for a := uint64(0); a < 48*1024; a += 64 {
		h.Access(a)
	}
	if lat := h.Access(0); lat != 11 {
		t.Fatalf("L2-hit latency = %d, want 11", lat)
	}
}

func TestStreamBytesChargesPerLine(t *testing.T) {
	h := NewHierarchy()
	cyc := h.StreamBytes(0, 64*10)
	// 10 cold lines at 41 cycles each.
	if cyc != 410 {
		t.Fatalf("stream cycles = %d, want 410", cyc)
	}
}

func TestStrideLargerThanLineMissesEveryTime(t *testing.T) {
	h := NewHierarchy()
	// Strides of 4 KB over 4 MB: every access cold-misses.
	cyc := h.StrideBytes(0, 1024, 4096)
	if cyc != 1024*41 {
		t.Fatalf("stride cycles = %d, want %d", cyc, 1024*41)
	}
}

func TestSimulateInferenceNearPaperBaselines(t *testing.T) {
	cm := DefaultCostModel()
	r20 := cm.SimulateInference(model.ResNet20CIFARShapes())
	// Paper gem5 baseline: 66.3 ms. Accept ±15% for the substitute model.
	if r20.BaselineSec < 0.0563 || r20.BaselineSec > 0.0763 {
		t.Fatalf("ResNet-20 baseline = %.4fs, paper 0.0663s", r20.BaselineSec)
	}
	r18 := cm.SimulateInference(model.ResNet18ImageNetShapes())
	// Paper: 3.268 s.
	if r18.BaselineSec < 2.7 || r18.BaselineSec > 3.8 {
		t.Fatalf("ResNet-18 baseline = %.3fs, paper 3.268s", r18.BaselineSec)
	}
}

func TestRADAROverheadBands(t *testing.T) {
	cm := DefaultCostModel()
	// Table IV shape: ResNet-20 G=8 overhead a few percent; ResNet-18
	// G=512 under ~3%; interleaving strictly more expensive.
	r20plain := cm.SimulateRADAR(model.ResNet20CIFARShapes(), RADARConfig{G: 8, SigBits: 2})
	r20int := cm.SimulateRADAR(model.ResNet20CIFARShapes(), RADARConfig{G: 8, Interleave: true, SigBits: 2})
	if r20int.DetectionSec <= r20plain.DetectionSec {
		t.Fatal("interleaving must cost more than plain RADAR")
	}
	if p := r20int.OverheadPercent(); p < 1 || p > 10 {
		t.Fatalf("ResNet-20 interleaved overhead = %.2f%%, paper 5.27%%", p)
	}
	r18int := cm.SimulateRADAR(model.ResNet18ImageNetShapes(), RADARConfig{G: 512, Interleave: true, SigBits: 2})
	if p := r18int.OverheadPercent(); p > 5 {
		t.Fatalf("ResNet-18 interleaved overhead = %.2f%%, paper 1.83%%", p)
	}
	r18plain := cm.SimulateRADAR(model.ResNet18ImageNetShapes(), RADARConfig{G: 512, SigBits: 2})
	if p := r18plain.OverheadPercent(); p > 2.5 {
		t.Fatalf("ResNet-18 plain overhead = %.2f%%, paper 0.58%%", p)
	}
}

func TestCRCCostsMoreThanRADAR(t *testing.T) {
	cm := DefaultCostModel()
	for _, tc := range []struct {
		tab *model.ShapeTable
		g   int
	}{
		{model.ResNet20CIFARShapes(), 8},
		{model.ResNet18ImageNetShapes(), 512},
	} {
		radar := cm.SimulateRADAR(tc.tab, RADARConfig{G: tc.g, Interleave: true, SigBits: 2})
		crc := cm.SimulateCRC(tc.tab, tc.g)
		if crc.DetectionSec < 3*radar.DetectionSec {
			t.Fatalf("%s: CRC Δ=%.4fs should be ≫ RADAR Δ=%.4fs",
				tc.tab.Model, crc.DetectionSec, radar.DetectionSec)
		}
	}
}

func TestInterleaveCostAsymmetry(t *testing.T) {
	// The paper's interleave cost is small for ResNet-20 (layers fit in L2)
	// and large for ResNet-18 (gather walks DRAM). Verify the ratio of the
	// interleave surcharge to the plain cost is much larger for ResNet-18.
	cm := DefaultCostModel()
	r20p := cm.SimulateRADAR(model.ResNet20CIFARShapes(), RADARConfig{G: 8, SigBits: 2})
	r20i := cm.SimulateRADAR(model.ResNet20CIFARShapes(), RADARConfig{G: 8, Interleave: true, SigBits: 2})
	r18p := cm.SimulateRADAR(model.ResNet18ImageNetShapes(), RADARConfig{G: 512, SigBits: 2})
	r18i := cm.SimulateRADAR(model.ResNet18ImageNetShapes(), RADARConfig{G: 512, Interleave: true, SigBits: 2})
	s20 := r20i.DetectionSec / r20p.DetectionSec
	s18 := r18i.DetectionSec / r18p.DetectionSec
	if s18 <= s20 {
		t.Fatalf("interleave surcharge ratio: RN18 %.2f should exceed RN20 %.2f", s18, s20)
	}
}

func TestOverheadPercentZeroBaseline(t *testing.T) {
	r := InferenceResult{DetectionSec: 1}
	if r.OverheadPercent() != 0 {
		t.Fatal("zero baseline must yield 0 overhead")
	}
}

// BenchmarkMemsimRADAR measures the cost-model evaluation itself (cheap;
// exists so the Table IV pipeline has a perf guard).
func BenchmarkMemsimRADAR(b *testing.B) {
	tab := model.ResNet18ImageNetShapes()
	cm := DefaultCostModel()
	for i := 0; i < b.N; i++ {
		cm.SimulateRADAR(tab, RADARConfig{G: 512, Interleave: true, SigBits: 2})
	}
}
