// Package qinfer is an 8-bit integer inference engine — the deployment form
// of the models the paper protects. Convolutions run on int8 weights and
// int8 activations with int32 accumulators; batch-norm layers are folded
// into per-channel affine rescaling applied at requantization; and
// activations are quantized symmetrically with per-stage scales fixed by a
// one-shot calibration pass and requantized through per-stage tables of
// exact level boundaries, not a divide and a rounding call. This is the
// engine whose weight-fetch path RADAR's checksum rides in the gem5
// experiments (Tables IV/V); it also demonstrates that the defense needs no
// floating-point weight copy: detection and recovery act directly on the
// int8 image this engine consumes — the classifier included, which
// dequantizes its int8 rows as it reads them. The embedded-detection point
// is exposed in software as one fetch step per stage, the WeightFetcher: it
// returns once the layer's weights are verified and locked, the stage
// computes on them, and the hold is released — so the checksum pass and the
// convolution walk the same bytes back to back, and nothing can be written
// between the check and the use. internal/serve implements it over
// core.Protector.FetchLayer.
package qinfer

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/nn"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// QTensor is an int8 activation tensor with a symmetric scale:
// real value ≈ Scale · Q.
type QTensor struct {
	// Shape is outermost-first, as in tensor.Tensor.
	Shape []int
	// Q holds the quantized values.
	Q []int8
	// Scale is the dequantization step.
	Scale float32
}

// NewQTensor allocates a zero QTensor.
func NewQTensor(scale float32, shape ...int) *QTensor {
	return &QTensor{Shape: append([]int(nil), shape...), Q: make([]int8, tensor.Volume(shape)), Scale: scale}
}

// QuantizeActivations converts a float tensor to int8 with the given scale.
func QuantizeActivations(x *tensor.Tensor, scale float32) *QTensor {
	out := NewQTensor(scale, x.Shape...)
	for i, v := range x.Data {
		out.Q[i] = clampQ(float64(v) / float64(scale))
	}
	return out
}

// Dequantize converts back to float.
func (q *QTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Shape...)
	for i, v := range q.Q {
		out.Data[i] = float32(v) * q.Scale
	}
	return out
}

func clampQ(v float64) int8 {
	r := math.Round(v)
	if r > 127 {
		return 127
	}
	if r < -128 {
		return -128
	}
	return int8(r)
}

// levels is a stage's output step and requantization table: quantize(v)
// is clampQ(relu(v)/scale) with no divide and no rounding call. bound[i] is
// the least v whose level is at least i−128 (−Inf where ReLU lifts every v
// to it); the NaNs at the ends are walls no v passes. A level estimated
// from v·inv is never off by more than one, so one compare each way fixes it.
type levels struct {
	bound      [257]float64
	scale      float32
	inv, floor float64 // 1/scale; the lowest index, 128 under ReLU
}

func newLevels(scale float32, relu bool) *levels {
	s, lowest := float64(scale), math.Inf(-1)
	l := &levels{scale: scale, inv: 1 / s, bound: [257]float64{math.NaN(), 256: math.NaN()}}
	if relu {
		l.floor, lowest = 128, 0
	}
	for i := 1; i < 256; i++ {
		l.bound[i] = firstAtLeast(func(v float64) bool { return int(clampQ(max(v, lowest)/s)) >= i-128 }, (float64(i)-128.5)*s)
	}
	return l
}

func (l *levels) quantize(v float64) int8 {
	i := uint8(int(max(l.floor, min(v*l.inv+128.5, 255))))
	if v < l.bound[i] {
		i--
	} else if v >= l.bound[int(i)+1] {
		i++
	}
	return int8(i - 128)
}

// firstAtLeast bisects for the least float64 at which ok (monotone, true at
// +Inf) holds, keyed ±bits(|v|), in ±64 keys of guess when they bracket it.
func firstAtLeast(ok func(float64) bool, guess float64) float64 {
	val := func(k int64) float64 { return math.Copysign(math.Float64frombits(uint64(max(k, -k))), float64(k)) }
	hi := int64(math.Float64bits(math.Inf(1)))
	lo, g := -hi, int64(math.Copysign(1, guess))*int64(math.Float64bits(math.Abs(guess)))
	switch {
	case ok(val(lo)):
		return val(lo)
	case !ok(val(g-64)) && ok(val(g+64)):
		lo, hi = g-64, g+64
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; ok(val(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return val(hi)
}

// foldedBN is a batch-norm layer collapsed to y = A·x + B per channel
// (inference-mode statistics baked in).
type foldedBN struct {
	a, b []float32
}

func foldBN(bn *nn.BatchNorm2D) foldedBN {
	n := bn.C
	f := foldedBN{a: make([]float32, n), b: make([]float32, n)}
	for c := 0; c < n; c++ {
		inv := 1.0 / math.Sqrt(bn.RunningVar[c]+bn.Eps)
		g := float64(bn.Gamma.Value.Data[c])
		f.a[c] = float32(g * inv)
		f.b[c] = float32(float64(bn.Beta.Value.Data[c]) - g*inv*bn.RunningMean[c])
	}
	return f
}

// qconv is one quantized convolution stage: int8 weights, folded BN,
// optional ReLU, and a fixed output activation scale.
type qconv struct {
	name           string
	w              []int8 // (outC, inC*k*k) row-major, aliasing quant.Layer.Q
	qLayer         int    // index of the aliased layer in the quant.Model
	wScale         float32
	inC, outC      int
	k, stride, pad int
	bn             foldedBN
	relu           bool
	lv             *levels // output step, with ReLU, set by calibrate
}

// forward computes the stage on an int8 input of shape (N, inC, H, W)
// inside the pass's fetch bracket (see engineScratch.fetchLayer).
func (c *qconv) forward(x *QTensor, sc *engineScratch) *QTensor {
	defer sc.release(sc.fetchLayer(c.qLayer))
	return c.compute(x, sc)
}

// compute is the raw int8 convolution, free of any serving coordination:
// per image an im2col pack into the scratch patch matrix, the int8 GEMM
// (see gemm.go: straight from the live weight rows where the host has the
// kernel for it, else from rows packed in pairs first) and the per-channel
// BN rescale, ReLU and requantization through the stage's levels table (no
// divide, no math.Round). Bit-identical to computeRef, the reference loop.
func (c *qconv) compute(x *QTensor, sc *engineScratch) *QTensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.inC {
		panic("qinfer: channel mismatch in " + c.name)
	}
	outH := tensor.ConvOutSize(h, c.k, c.stride, c.pad)
	outW := tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	out := NewQTensor(c.lv.scale, n, c.outC, outH, outW)
	kCols := c.inC * c.k * c.k
	plane := outH * outW
	m4, p4 := (c.outC+3)&^3, (plane+3)&^3
	cols := grow(&sc.cols, p4*kCols)
	acc := grow(&sc.acc, m4*p4)
	live := gemmLive
	var packed [][2]int64
	if live == nil {
		// Packed from the live image on every stage call, inside the fetch
		// bracket: a flip between two passes reaches the second one.
		packed = grow(&sc.packed, m4/4*kCols)
		packPairs(c.w, packed, c.outC, kCols)
	}
	// Effective multiplier from int32 accumulator to real value.
	accScale := float64(c.wScale) * float64(x.Scale)
	for img := 0; img < n; img++ {
		c.im2col(x.Q[img*ch*h*w:][:ch*h*w], h, w, outH, outW, cols, sc)
		if live != nil {
			live(c.w, cols, acc, c.outC, kCols, p4)
		} else {
			gemmPacked(packed, cols, acc, m4, kCols, p4)
		}
		outBase := img * c.outC * plane
		for oc := 0; oc < c.outC; oc++ {
			a := float64(c.bn.a[oc])
			bb := float64(c.bn.b[oc])
			accRow := acc[oc*p4:][:plane]
			outRow := out.Q[outBase+oc*plane:][:plane]
			for p := 0; p < plane; p++ {
				outRow[p] = c.lv.quantize(a*(accScale*float64(accRow[p])) + bb)
			}
		}
	}
	return out
}

// computeRef is the historical 7-deep nested conv loop, kept verbatim as
// the bit-exactness reference for the GEMM path: the differential
// property tests in gemm_test.go pin compute against it on every
// checkpoint layer shape and on randomized geometries.
func (c *qconv) computeRef(x *QTensor) *QTensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.inC {
		panic("qinfer: channel mismatch in " + c.name)
	}
	outH := tensor.ConvOutSize(h, c.k, c.stride, c.pad)
	outW := tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	out := NewQTensor(c.lv.scale, n, c.outC, outH, outW)
	kk := c.k * c.k
	cols := c.inC * kk
	// Effective multiplier from int32 accumulator to real value.
	accScale := float64(c.wScale) * float64(x.Scale)
	for img := 0; img < n; img++ {
		inBase := img * ch * h * w
		outBase := img * c.outC * outH * outW
		for oc := 0; oc < c.outC; oc++ {
			wRow := c.w[oc*cols : (oc+1)*cols]
			a := float64(c.bn.a[oc])
			bb := float64(c.bn.b[oc])
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc int32
					for ic := 0; ic < c.inC; ic++ {
						icBase := inBase + ic*h*w
						wBase := ic * kk
						for ky := 0; ky < c.k; ky++ {
							iy := oy*c.stride - c.pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							rowBase := icBase + iy*w
							wRowBase := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ox*c.stride - c.pad + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += int32(wRow[wRowBase+kx]) * int32(x.Q[rowBase+ix])
							}
						}
					}
					v := a*(accScale*float64(acc)) + bb
					if c.relu && v < 0 {
						v = 0
					}
					out.Q[outBase+oc*outH*outW+oy*outW+ox] = clampQ(v / float64(c.lv.scale))
				}
			}
		}
	}
	return out
}

// qblock is a quantized residual basic block.
type qblock struct {
	conv1, conv2 *qconv
	down         *qconv  // nil for identity shortcuts
	lv           *levels // output step of the sum, with ReLU
}

func (b *qblock) forward(x *QTensor, sc *engineScratch) *QTensor {
	main := b.conv1.forward(x, sc)
	main = b.conv2.forward(main, sc)
	side := x
	if b.down != nil {
		side = b.down.forward(x, sc)
	}
	// Residual add in the real domain, then ReLU and requantize.
	out := NewQTensor(b.lv.scale, main.Shape...)
	ms, ss := float64(main.Scale), float64(side.Scale)
	q, mq, sq := out.Q, main.Q[:len(out.Q)], side.Q[:len(out.Q)]
	for i := range q {
		q[i] = b.lv.quantize(ms*float64(mq[i]) + ss*float64(sq[i]))
	}
	return out
}

// qlinear is the final classifier. Its weights stay in the protected int8
// image (aliasing quant.Layer.Q, like a conv stage's) and are dequantized
// row by row as they are read, so a flip there is seen by inference and by
// the verified fetch alike; float32(q)·scale is exactly the value the
// quantizer synchronized into the float network, so the logits equal the
// float classifier's bit for bit.
type qlinear struct {
	w       []int8 // (out, in) row-major, aliasing quant.Layer.Q
	qLayer  int
	wScale  float32
	in, out int
	bias    []float32
}

// forward computes logits = x·Wᵀ + b for pooled features x of shape
// (N, in), inside the pass's fetch bracket.
func (l *qlinear) forward(x *tensor.Tensor, sc *engineScratch) *tensor.Tensor {
	defer sc.release(sc.fetchLayer(l.qLayer))
	n := x.Shape[0]
	out := tensor.New(n, l.out)
	row := grow(&sc.row, l.in)
	for j := 0; j < l.out; j++ {
		for p, q := range l.w[j*l.in:][:l.in] {
			row[p] = float32(q) * l.wScale
		}
		for i := 0; i < n; i++ {
			var s float32
			for p, v := range x.Data[i*l.in:][:l.in] {
				s += v * row[p]
			}
			out.Data[i*l.out+j] = s + l.bias[j]
		}
	}
	return out
}

// Engine is a compiled int8 inference network mirroring a ResNet built by
// nn.BuildResNet.
type Engine struct {
	inScale float32
	stem    *qconv
	pool    bool
	blocks  []*qblock
	fc      *qlinear

	// scratch pools the per-forward working buffers; see engineScratch.
	// Safe for concurrent Forward calls — each checks out its own
	// instance.
	scratch sync.Pool

	// stageCount/stageNs accumulate executed stage count and wall time
	// spent inside stage compute (fetch steps excluded), the per-stage
	// telemetry behind radar_gemm_stage_seconds_total. Each pass adds its
	// totals once, when it ends.
	stageCount atomic.Int64
	stageNs    atomic.Int64
}

// StageStats returns the cumulative number of executed stages (conv stages
// plus the classifier) and the total nanoseconds spent in their compute.
// Safe to call concurrently with Forward; a metrics scrape reads it
// through counter funcs.
func (e *Engine) StageStats() (stages, ns int64) {
	return e.stageCount.Load(), e.stageNs.Load()
}

// WeightFetcher is the engine's weight-fetch seam: the one step between a
// stage and the quantized layer it reads. FetchLayer returns once the
// layer's weights are safe to read and stay so until the matching
// ReleaseLayer; a pass holds one layer at a time. The interface keeps
// qinfer free of a dependency on the protection scheme; internal/serve
// implements it with core.Protector.FetchLayer, which verifies the layer's
// signatures inside this step — the paper's embedded detection (Tables
// IV/V).
type WeightFetcher interface {
	FetchLayer(layer int)
	ReleaseLayer(layer int)
}

// convs lists the conv stages in execution order.
func (e *Engine) convs() []*qconv {
	out := []*qconv{e.stem}
	for _, b := range e.blocks {
		out = append(out, b.conv1, b.conv2)
		if b.down != nil {
			out = append(out, b.down)
		}
	}
	return out
}

// QuantLayers returns the quantized-layer indices the engine consumes, in
// execution order (a layer appears once per stage that reads it).
func (e *Engine) QuantLayers() []int {
	var out []int
	for _, c := range e.convs() {
		out = append(out, c.qLayer)
	}
	return append(out, e.fc.qLayer)
}

// InputChannels is the channel count of the inputs the engine accepts; a
// pass over any other panics in the stem.
func (e *Engine) InputChannels() int { return e.stem.inC }

// Compile converts a trained float ResNet plus its quantized weight image
// into an int8 engine. calib is a representative input batch used to fix
// the activation scales (one eval walk of the float network, watched stage
// by stage); it is left as it was.
func Compile(net *nn.Sequential, qm *quant.Model, calib *tensor.Tensor) (*Engine, error) {
	e := &Engine{}
	var blocks []*qblock
	layers := net.Layers
	li := 0
	qIdx := 0
	nextQ := func(name string) (*quant.Layer, int) {
		if qIdx >= len(qm.Layers) {
			panic("qinfer: ran out of quantized layers at " + name)
		}
		l := qm.Layers[qIdx]
		qIdx++
		if l.Name != name {
			panic(fmt.Sprintf("qinfer: expected quantized layer %s, got %s", name, l.Name))
		}
		return l, qIdx - 1
	}

	// scaleAt maps each layer whose output fixes a scale to its levels.
	scaleAt := map[nn.Layer]**levels{}
	// makeConv builds the stage of conv and bn; out, the stage's ReLU or bn
	// itself, is the layer whose output fixes the stage's scale.
	makeConv := func(conv *nn.Conv2D, bn *nn.BatchNorm2D, out nn.Layer) *qconv {
		ql, qi := nextQ(conv.Weight.Name)
		_, relu := out.(*nn.ReLU)
		c := &qconv{
			name:   conv.Name(),
			w:      ql.Q,
			qLayer: qi,
			wScale: ql.Scale,
			inC:    conv.InC, outC: conv.OutC,
			k: conv.K, stride: conv.Stride, pad: conv.Pad,
			bn:   foldBN(bn),
			relu: relu,
		}
		scaleAt[out] = &c.lv
		return c
	}

	// Stem: Conv2D, BatchNorm2D, ReLU, [MaxPool2].
	conv, ok := layers[li].(*nn.Conv2D)
	if !ok {
		return nil, fmt.Errorf("qinfer: layer 0 is %T, want *nn.Conv2D", layers[li])
	}
	bn, ok := layers[li+1].(*nn.BatchNorm2D)
	if !ok {
		return nil, fmt.Errorf("qinfer: layer 1 is %T, want *nn.BatchNorm2D", layers[li+1])
	}
	relu, ok := layers[li+2].(*nn.ReLU)
	if !ok {
		return nil, fmt.Errorf("qinfer: layer 2 is %T, want *nn.ReLU", layers[li+2])
	}
	e.stem = makeConv(conv, bn, relu)
	li += 3
	if _, isPool := layers[li].(*nn.MaxPool2); isPool {
		e.pool = true
		li++
	}
	for ; li < len(layers); li++ {
		switch l := layers[li].(type) {
		case *nn.BasicBlock:
			qb := &qblock{
				conv1: makeConv(l.Conv1, l.BN1, l.Relu1),
				conv2: makeConv(l.Conv2, l.BN2, l.BN2),
			}
			if l.DownConv != nil {
				qb.down = makeConv(l.DownConv, l.DownBN, l.DownBN)
			}
			scaleAt[l.Relu2] = &qb.lv
			blocks = append(blocks, qb)
		case *nn.GlobalAvgPool:
			// done with conv stages
		case *nn.Linear:
			ql, qi := nextQ(l.Weight.Name)
			e.fc = &qlinear{
				w:      ql.Q,
				qLayer: qi,
				wScale: ql.Scale,
				in:     l.Weight.Value.Shape[1],
				out:    l.Weight.Value.Shape[0],
				bias:   append([]float32(nil), l.Bias.Value.Data...),
			}
		default:
			return nil, fmt.Errorf("qinfer: unsupported layer %T", l)
		}
	}
	e.blocks = blocks
	if e.fc == nil {
		return nil, fmt.Errorf("qinfer: model has no final Linear layer")
	}
	for _, c := range e.convs() {
		if k := c.inC * c.k * c.k; k > maxLaneK {
			return nil, fmt.Errorf("qinfer: %s has inC·k·k = %d > %d, so an int32 accumulator lane could wrap", c.name, k, maxLaneK)
		}
	}
	e.calibrate(net, calib, scaleAt)
	return e, nil
}

// calibrate sets the input scale and every level in scaleAt to maxAbs/127
// of the float output that fixes it, with ReLU's floor where a ReLU
// produced it: one eval walk of net over the calibration batch, watched.
func (e *Engine) calibrate(net *nn.Sequential, calib *tensor.Tensor, scaleAt map[nn.Layer]**levels) {
	e.inScale = scaleOf(calib)
	net.Eval(calib, func(l nn.Layer, out *tensor.Tensor) {
		if lv := scaleAt[l]; lv != nil {
			_, relu := l.(*nn.ReLU)
			*lv = newLevels(scaleOf(out), relu)
		}
	})
}

// scaleOf is the activation step that maps t's largest magnitude to 127,
// or 1 when t is all zeros.
func scaleOf(t *tensor.Tensor) float32 {
	s := t.MaxAbs() / 127
	if s == 0 {
		s = 1
	}
	return s
}

// Forward runs int8 inference on a float input batch (N, C, H, W) and
// returns float logits (N, classes). The weights are read as they are,
// unguarded — for engines no other goroutine writes to.
func (e *Engine) Forward(x *tensor.Tensor) *tensor.Tensor {
	out, _ := e.run(x, nil, nil)
	return out
}

// ForwardWithHook is Forward calling hook with the quantized-layer index
// immediately before each stage reads that layer's weights.
func (e *Engine) ForwardWithHook(x *tensor.Tensor, hook func(layer int)) *tensor.Tensor {
	out, _ := e.run(x, hook, nil)
	return out
}

// ForwardFetch is Forward with every stage's weight use bracketed by f:
// FetchLayer, the stage's compute, ReleaseLayer. It also returns the time
// the pass spent inside its fetch steps (lock waits and verification) —
// kept on the pass, not on the engine, so concurrent workers sharing one
// engine each get their own figure.
func (e *Engine) ForwardFetch(x *tensor.Tensor, f WeightFetcher) (*tensor.Tensor, time.Duration) {
	return e.run(x, nil, f)
}

func (e *Engine) run(x *tensor.Tensor, hook func(layer int), f WeightFetcher) (*tensor.Tensor, time.Duration) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.hook, sc.fetcher = hook, f
	q := QuantizeActivations(x, e.inScale)
	q = e.stem.forward(q, sc)
	if e.pool {
		pooled, _ := tensor.MaxPool2(q.Dequantize())
		q = QuantizeActivations(pooled, q.Scale)
	}
	for _, b := range e.blocks {
		q = b.forward(q, sc)
	}
	// Global average pool in the real domain, then the classifier.
	out := e.fc.forward(tensor.GlobalAvgPool(q.Dequantize()), sc)
	return out, sc.fetchTime
}
