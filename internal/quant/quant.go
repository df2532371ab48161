// Package quant implements 8-bit symmetric per-layer weight quantization
// and the two's-complement bit manipulation primitives used by both the
// PBFA attack and the RADAR defense. Quantized weights are stored as int8
// exactly as they would sit in DRAM; bit index 7 is the most significant
// bit (the sign bit of the two's-complement encoding).
package quant

import (
	"fmt"
	"math"

	"radar/internal/nn"
)

// QMax is the largest representable quantized magnitude (int8 symmetric).
const QMax = 127

// MSB is the index of the most significant (sign) bit of an int8 weight.
const MSB = 7

// Layer is one quantized weight tensor: the int8 values, the shared
// dequantization scale, and a link back to the float parameter that the
// inference engine actually consumes. Q is the authoritative storage (the
// "DRAM copy"); Sync writes its dequantized values into Param.
type Layer struct {
	// Name echoes the parameter name, e.g. "stage1.block0.conv1.weight".
	Name string
	// Q holds the quantized weights in row-major order.
	Q []int8
	// Scale is the per-layer dequantization step: w = scale * q.
	Scale float32
	// Scales, when non-empty, holds one scale per output channel (equal
	// runs of Q; the store format carries them); Scale then mirrors
	// Scales[0].
	Scales []float32
	// Param points at the float tensor used for inference.
	Param *nn.Param
}

// Model wraps a float network with quantized storage for every weight
// tensor that carries weight decay (conv and linear weights — the tensors
// the paper attacks; BN affine parameters and biases stay in float, matching
// the 8-bit weight-quantization setup of the paper).
type Model struct {
	// Net is the underlying float network.
	Net *nn.Sequential
	// Layers lists the quantized weight tensors in network order.
	Layers []*Layer
	// observers are notified with a layer index whenever that layer's
	// quantized storage is mutated through the Model API; see Observe.
	observers []func(layer int)
}

// Observe registers fn to be called with the layer index each time that
// layer's quantized weights change through the Model API (FlipBit,
// Restore). RADAR's incremental scan uses this to track dirty layers.
// Direct writes to Layer.Q bypass notification. Observers run on the
// mutating goroutine and must be cheap and safe for concurrent use if the
// model is mutated from several goroutines. The returned cancel function
// unregisters fn; short-lived observers (e.g. a protector being replaced)
// must call it, or the model keeps them reachable and pays their callback
// on every write forever.
func (m *Model) Observe(fn func(layer int)) (cancel func()) {
	i := len(m.observers)
	for j, o := range m.observers {
		if o == nil { // reuse a cancelled slot so the list stays bounded
			i = j
			break
		}
	}
	if i == len(m.observers) {
		m.observers = append(m.observers, nil)
	}
	m.observers[i] = fn
	cancelled := false
	return func() {
		if !cancelled { // idempotent: the slot may have been reused
			cancelled = true
			m.observers[i] = nil
		}
	}
}

// notifyWrite fans a mutation of layer li out to the observers.
func (m *Model) notifyWrite(li int) {
	for _, fn := range m.observers {
		if fn != nil {
			fn(li)
		}
	}
}

// MarkWritten notifies the model's observers that layer li's quantized
// storage was mutated outside the Model API (e.g. recovery zeroing weights
// through Layer.Q directly). Storage backends use the notification to keep
// dirty-page tracking sound — an mmap-backed checkpoint schedules the
// layer for msync — and incremental scanners re-check the layer on their
// next pass.
func (m *Model) MarkWritten(li int) { m.notifyWrite(li) }

// Attach wires the model to an existing float network: each quantized
// layer binds to the parameter of the same name and the dequantized values
// are synchronized into it, so a model restored from external storage
// (e.g. an mmap-backed store checkpoint, which carries only the int8
// image) drives the network — and the storage, not the network, is
// authoritative from then on. Every layer must find a parameter of
// matching name and size; extra parameters (BN affine terms, biases) are
// left as the network has them.
func (m *Model) Attach(net *nn.Sequential) error {
	params := net.Params()
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	// Validate everything before binding anything, so a mismatch leaves
	// the model unattached rather than half-wired.
	for _, l := range m.Layers {
		p, ok := byName[l.Name]
		if !ok {
			return fmt.Errorf("quant: no parameter named %q to attach", l.Name)
		}
		if p.Value.Len() != len(l.Q) {
			return fmt.Errorf("quant: layer %q has %d weights, parameter has %d",
				l.Name, len(l.Q), p.Value.Len())
		}
	}
	for _, l := range m.Layers {
		l.Param = byName[l.Name]
	}
	m.Net = net
	m.SyncAll()
	return nil
}

// Quantize converts every conv/linear weight of net to int8 symmetric
// quantization (scale = max|w|/127) and synchronizes the float weights to
// the quantization grid, so subsequent inference exactly reflects the int8
// storage.
func Quantize(net *nn.Sequential) *Model {
	m := &Model{Net: net}
	for _, p := range net.Params() {
		if !p.WeightDecay {
			continue // BN γ/β and biases are not weight-quantized
		}
		maxAbs := p.Value.MaxAbs()
		if maxAbs == 0 {
			maxAbs = 1
		}
		scale := maxAbs / QMax
		l := &Layer{Name: p.Name, Q: make([]int8, p.Value.Len()), Scale: scale, Param: p}
		for i, v := range p.Value.Data {
			q := int(math.Round(float64(v / scale)))
			if q > QMax {
				q = QMax
			}
			if q < -QMax-1 {
				q = -QMax - 1
			}
			l.Q[i] = int8(q)
		}
		m.Layers = append(m.Layers, l)
	}
	m.SyncAll()
	return m
}

// SyncAll writes the dequantized value of every stored int8 weight into the
// float parameters, making the network state match the (possibly attacked)
// DRAM image.
func (m *Model) SyncAll() {
	for _, l := range m.Layers {
		l.Sync()
	}
}

// Sync dequantizes this layer into its float parameter. Layers without a
// float side (pure DRAM images, e.g. model.SyntheticQuant) are left alone,
// so attacks and recovery work on them too.
func (l *Layer) Sync() {
	if l.Param == nil {
		return
	}
	for i, q := range l.Q {
		l.Param.Value.Data[i] = float32(q) * l.scaleAt(i)
	}
}

// scaleAt returns the dequantization scale of weight index i, honoring
// per-channel scales when present.
func (l *Layer) scaleAt(i int) float32 {
	if len(l.Scales) == 0 {
		return l.Scale
	}
	cols := len(l.Q) / len(l.Scales)
	return l.Scales[i/cols]
}

// SyncIndex dequantizes a single weight (cheap update after one bit flip).
// No-op on layers without a float parameter.
func (l *Layer) SyncIndex(i int) {
	if l.Param == nil {
		return
	}
	l.Param.Value.Data[i] = float32(l.Q[i]) * l.scaleAt(i)
}

// TotalWeights returns the total number of quantized weights in the model.
func (m *Model) TotalWeights() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.Q)
	}
	return n
}

// Snapshot copies the current int8 image of every layer; Restore puts it
// back. Attacks use this to undo trial flips.
func (m *Model) Snapshot() [][]int8 {
	out := make([][]int8, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = append([]int8(nil), l.Q...)
	}
	return out
}

// Restore reinstates a Snapshot and re-synchronizes the float weights.
func (m *Model) Restore(snap [][]int8) {
	if len(snap) != len(m.Layers) {
		panic("quant: snapshot layer count mismatch")
	}
	for i, l := range m.Layers {
		copy(l.Q, snap[i])
		m.notifyWrite(i)
	}
	m.SyncAll()
}

// BitAddress identifies one bit in the quantized model.
type BitAddress struct {
	// LayerIndex selects the quantized layer.
	LayerIndex int
	// WeightIndex selects the weight within the layer.
	WeightIndex int
	// Bit selects the bit (0 = LSB … 7 = MSB).
	Bit int
}

// String renders a bit address for logs and profiles.
func (a BitAddress) String() string {
	return fmt.Sprintf("L%d[%d].b%d", a.LayerIndex, a.WeightIndex, a.Bit)
}

// FlipBit toggles the addressed bit in the quantized storage and
// synchronizes the dequantized float weight. It returns the old and new
// quantized values.
func (m *Model) FlipBit(a BitAddress) (old, new int8) {
	l := m.Layers[a.LayerIndex]
	old = l.Q[a.WeightIndex]
	l.Q[a.WeightIndex] = FlipBit(old, a.Bit)
	l.SyncIndex(a.WeightIndex)
	m.notifyWrite(a.LayerIndex)
	return old, l.Q[a.WeightIndex]
}

// FlipBit toggles bit b (0..7) of a two's-complement int8 value.
func FlipBit(v int8, b int) int8 {
	return int8(uint8(v) ^ (1 << uint(b)))
}

// Bit reports bit b of the two's-complement encoding of v.
func Bit(v int8, b int) int {
	return int(uint8(v)>>uint(b)) & 1
}

// FlipDelta returns the signed change in quantized value caused by flipping
// bit b of v: +2^b when the bit is currently 0, −2^b when 1, except for the
// MSB whose place value is −128 in two's complement (so flipping MSB 0→1
// subtracts 128 and 1→0 adds 128).
func FlipDelta(v int8, b int) int {
	place := 1 << uint(b)
	if b == MSB {
		place = -128
	}
	if Bit(v, b) == 0 {
		return place
	}
	return -place
}
