package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"radar/internal/nn"
	"radar/internal/tensor"
)

func tinyNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("tiny",
		nn.NewLinear("fc1", 4, 8, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 8, 3, rng),
	)
}

func TestQuantizeOnlyWeightTensors(t *testing.T) {
	m := Quantize(tinyNet(1))
	if len(m.Layers) != 2 {
		t.Fatalf("expected 2 quantized layers (fc weights), got %d", len(m.Layers))
	}
	for _, l := range m.Layers {
		if l.Scale <= 0 {
			t.Fatalf("non-positive scale on %s", l.Name)
		}
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	net := tinyNet(2)
	// Save pre-quantization weights.
	var orig []float32
	for _, p := range net.Params() {
		if p.WeightDecay {
			orig = append(orig, append([]float32(nil), p.Value.Data...)...)
		}
	}
	m := Quantize(net)
	i := 0
	for _, l := range m.Layers {
		for j := range l.Q {
			err := math.Abs(float64(l.Param.Value.Data[j] - orig[i]))
			if err > float64(l.Scale)/2+1e-6 {
				t.Fatalf("%s[%d]: quantization error %v exceeds scale/2 %v", l.Name, j, err, l.Scale/2)
			}
			i++
		}
	}
}

func TestQuantizedValuesOnGrid(t *testing.T) {
	m := Quantize(tinyNet(3))
	for _, l := range m.Layers {
		for i, q := range l.Q {
			want := float32(q) * l.Scale
			if l.Param.Value.Data[i] != want {
				t.Fatalf("%s[%d] float weight %v not on grid point %v", l.Name, i, l.Param.Value.Data[i], want)
			}
		}
	}
}

func TestFlipBitInvolution(t *testing.T) {
	f := func(v int8, b uint8) bool {
		bit := int(b % 8)
		return FlipBit(FlipBit(v, bit), bit) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitChangesExactlyOneBit(t *testing.T) {
	f := func(v int8, b uint8) bool {
		bit := int(b % 8)
		x := uint8(v) ^ uint8(FlipBit(v, bit))
		return x == 1<<uint(bit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipDeltaMatchesActualChange(t *testing.T) {
	f := func(v int8, b uint8) bool {
		bit := int(b % 8)
		return int(FlipBit(v, bit))-int(v) == FlipDelta(v, bit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSBFlipSemantics(t *testing.T) {
	// Flipping the MSB of a small positive weight makes it very negative.
	if got := FlipBit(5, MSB); got != -123 {
		t.Fatalf("FlipBit(5, MSB) = %d, want -123", got)
	}
	// Flipping the MSB of a small negative weight makes it large positive.
	if got := FlipBit(-5, MSB); got != 123 {
		t.Fatalf("FlipBit(-5, MSB) = %d, want 123", got)
	}
	if Bit(-1, MSB) != 1 || Bit(1, MSB) != 0 {
		t.Fatal("Bit(MSB) sign semantics wrong")
	}
}

func TestModelFlipBitSyncsFloat(t *testing.T) {
	m := Quantize(tinyNet(4))
	a := BitAddress{LayerIndex: 0, WeightIndex: 3, Bit: MSB}
	l := m.Layers[0]
	oldQ := l.Q[3]
	old, newQ := m.FlipBit(a)
	if old != oldQ {
		t.Fatalf("reported old value %d, want %d", old, oldQ)
	}
	if newQ != FlipBit(oldQ, MSB) {
		t.Fatalf("flip result %d incorrect", newQ)
	}
	if l.Param.Value.Data[3] != float32(newQ)*l.Scale {
		t.Fatal("float weight not synchronized after flip")
	}
	// Flip back restores exactly.
	m.FlipBit(a)
	if l.Q[3] != oldQ {
		t.Fatal("double flip did not restore")
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := Quantize(tinyNet(5))
	snap := m.Snapshot()
	m.FlipBit(BitAddress{0, 0, 7})
	m.FlipBit(BitAddress{1, 2, 3})
	m.Restore(snap)
	for li, l := range m.Layers {
		for i, q := range l.Q {
			if q != snap[li][i] {
				t.Fatalf("layer %d weight %d not restored", li, i)
			}
			if l.Param.Value.Data[i] != float32(q)*l.Scale {
				t.Fatal("float weights not resynced on restore")
			}
		}
	}
}

func TestTotalWeights(t *testing.T) {
	m := Quantize(tinyNet(6))
	want := 4*8 + 8*3
	if got := m.TotalWeights(); got != want {
		t.Fatalf("TotalWeights = %d, want %d", got, want)
	}
}

func TestBitAddressString(t *testing.T) {
	s := BitAddress{2, 17, 7}.String()
	if s != "L2[17].b7" {
		t.Fatalf("String = %q", s)
	}
}

func TestQuantizePreservesInference(t *testing.T) {
	// Quantizing must not change predictions dramatically on random inputs:
	// outputs before and after differ by at most a few quantization steps.
	net := tinyNet(8)
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(4, 4)
	x.RandNormal(rng, 1)
	before := net.Forward(x, false).Clone()
	Quantize(net)
	after := net.Forward(x, false)
	for i := range before.Data {
		if math.Abs(float64(before.Data[i]-after.Data[i])) > 0.3 {
			t.Fatalf("output %d moved too much: %v → %v", i, before.Data[i], after.Data[i])
		}
	}
}

// perChannel gives every layer of m one scale per output channel (row r at
// (r+1)× the layer scale) and re-syncs the float side.
func perChannel(m *Model) {
	for _, l := range m.Layers {
		l.Scales = make([]float32, l.Param.Value.Shape[0])
		for r := range l.Scales {
			l.Scales[r] = l.Scale * float32(r+1)
		}
	}
	m.SyncAll()
}

func TestPerChannelSyncUsesRowScale(t *testing.T) {
	m := Quantize(tinyNet(22))
	perChannel(m)
	l := m.Layers[0]
	cols := len(l.Q) / len(l.Scales)
	for i, q := range l.Q {
		want := float32(q) * l.Scales[i/cols]
		if l.Param.Value.Data[i] != want {
			t.Fatalf("weight %d synced with wrong scale", i)
		}
	}
}

func TestPerChannelFlipBitSyncs(t *testing.T) {
	m := Quantize(tinyNet(23))
	perChannel(m)
	a := BitAddress{LayerIndex: 1, WeightIndex: 12, Bit: MSB} // second row: not Scale
	m.FlipBit(a)
	l := m.Layers[1]
	cols := len(l.Q) / len(l.Scales)
	want := float32(l.Q[12]) * l.Scales[12/cols]
	if l.Param.Value.Data[12] != want {
		t.Fatal("FlipBit did not sync with per-channel scale")
	}
}
