package memsim

import (
	"testing"

	"radar/internal/model"
)

func TestHierarchyLatencies(t *testing.T) {
	var ws weightStream
	// Cold: L1 miss + L2 miss → 1+10+30.
	if lat := ws.read(32); lat != 41 {
		t.Fatalf("cold latency = %d, want 41", lat)
	}
	// Warm: the next read starts on the line the last one left in L1.
	if lat := ws.read(32); lat != 1 {
		t.Fatalf("warm latency = %d, want 1", lat)
	}
}

func TestStreamBytesChargesPerLine(t *testing.T) {
	var ws weightStream
	// 10 cold lines at 41 cycles each.
	if cyc := ws.read(64 * 10); cyc != 410 {
		t.Fatalf("stream cycles = %d, want 410", cyc)
	}
}

// TestWeightStreamCycles pins the closed-form weight stream: every line
// touched costs a cold miss through both cache levels, except a first line
// the previous read already brought into L1.
func TestWeightStreamCycles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reads []int
		want  []uint64
	}{
		{"first line shared with the previous layer", []int{100, 64}, []uint64{82, 1}},
		{"line-aligned layers share nothing", []int{64, 64}, []uint64{41, 41}},
		{"an empty layer reads nothing", []int{32, 0, 32}, []uint64{41, 0, 1}},
	} {
		var ws weightStream
		for i, n := range tc.reads {
			if got := ws.read(n); got != tc.want[i] {
				t.Errorf("%s: read %d (%d bytes) = %d cycles, want %d", tc.name, i, n, got, tc.want[i])
			}
		}
	}
}

// TestSimulateInferencePinned pins the stream cycles and baselines the
// trace-driven L1/L2 simulator produced on both shape tables, which the
// closed form replaced with Tables IV/V unchanged. resnet20-cifar has four
// layers whose first line the previous layer touched, so a flat cost per
// line would read 160 cycles more.
func TestSimulateInferencePinned(t *testing.T) {
	cm := DefaultCostModel()
	for _, tc := range []struct {
		tab      *model.ShapeTable
		stream   uint64
		baseline float64
	}{
		{model.ResNet20CIFARShapes(), 174_582, 0.06938352080000001},
		{model.ResNet18ImageNetShapes(), 7_488_609, 3.0839308348000007},
	} {
		var ws weightStream
		var stream uint64
		for _, l := range tc.tab.Layers {
			stream += ws.read(l.Weights)
		}
		if stream != tc.stream {
			t.Errorf("%s: stream cycles %d, want %d", tc.tab.Model, stream, tc.stream)
		}
		if got := cm.SimulateInference(tc.tab).BaselineSec; got != tc.baseline {
			t.Errorf("%s: BaselineSec %v, want exactly %v", tc.tab.Model, got, tc.baseline)
		}
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
