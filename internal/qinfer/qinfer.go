// Package qinfer is an 8-bit integer inference engine — the deployment form
// of the models the paper protects. Convolutions run on int8 weights and
// int8 activations with int32 accumulators; batch-norm layers are folded
// into per-channel affine rescaling applied at requantization; and
// activations are quantized symmetrically with per-stage scales fixed by a
// one-shot calibration pass. A conv stage is one integer GEMM of the
// weight rows, in quant.Layer.Q's own (oc, ic, ky, kx) order, with a patch
// operand whose row k holds tap k of every output pixel. On amd64 with
// AVX2 that operand is implicit (gemm.go): the image is copied once into
// zero-bordered planes — split into phase planes at stride s — output
// pixels are indexed in the padded width, so row k is a contiguous slice
// of the planes starting at koff[k], one offset table per call, and the
// kernel reads it in place. The padded width's extra columns per row are
// junk sums, skipped as each row is requantized. Elsewhere im2col packs the
// operand explicitly. Integer sums are exact in any order, so both legs
// are bit-identical to the reference loop. Requantization is one formula,
// clampQ(max(v, floor)/scale), evaluated four float64 lanes at a time on
// amd64 with AVX2 and one value at a time elsewhere, bit for bit alike.
// This is the engine whose weight-fetch path RADAR's checksum rides in the
// gem5 experiments (Tables IV/V); it also demonstrates that the defense
// needs no floating-point weight copy: detection and recovery act directly
// on the int8 image this engine consumes — the classifier included, which
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

// clampQ is math.Round(v) saturated to int8. Below the saturation bounds
// it adds the largest float64 under ½, with v's sign, and truncates: the
// sum reaches the next integer away from zero exactly when v's fraction is
// at least ½, so the result is math.Round's without its branches on v's
// exponent (TestClampQMatchesRound).
func clampQ(v float64) int8 {
	switch {
	case v >= 126.5:
		return 127
	case v <= -127.5:
		return -128
	}
	return int8(v + math.Copysign(0.49999999999999994, v))
}

// levels is a stage's output step and ReLU floor: v requantizes to
// clampQ(max(v, floor)/scale), which is clampQ(relu(v)/scale) with ReLU
// (floor 0) and clampQ(v/scale) without (floor −Inf).
type levels struct {
	scale float32
	floor float64
}

func newLevels(scale float32, relu bool) *levels {
	l := &levels{scale: scale, floor: math.Inf(-1)}
	if relu {
		l.floor = 0
	}
	return l
}

// conv requantizes a conv stage's output-channel plane: dst holds rows of
// w outputs and row r's sums lie at acc[r·ld:][:w] — ld > w where the
// implicit GEMM's junk columns sit between the rows, which are dropped
// here; ld = w is one flat run. dst[i] is the level of
// a·(accScale·acc) + b. Where the GEMM runs its AVX2 kernel (gemmLive
// set), requantConvAVX2 runs every row at least four wide, in the same
// operations in the same order, and this loop the rest. The explicit
// float64 conversions keep each product rounded on its own, as the
// kernel's VMULPD does: Go may fuse x*y+z into an FMA (GOAMD64=v3), but
// never across a conversion.
func (l *levels) conv(dst []int8, acc []int32, w, ld int, a, b, accScale float64) {
	if w == ld {
		w, ld = len(dst), len(dst)
	}
	if w == 0 {
		return
	}
	rows := len(dst) / w
	acc = acc[:(rows-1)*ld+w]
	floor, s := l.floor, float64(l.scale)
	if w >= 4 && gemmLive != nil {
		requantConvAVX2(&dst[0], &acc[0], rows, w, ld, a, b, accScale, floor, s)
		return
	}
	for r := 0; r < rows; r++ {
		d, ac := dst[r*w:][:w], acc[r*ld:][:w]
		for i := range d {
			d[i] = clampQ(max(float64(a*(accScale*float64(ac[i])))+b, floor) / s)
		}
	}
}

// add requantizes a residual sum: dst[i] is the level of
// ms·mq[i] + ss·sq[i], split between requantAddAVX2 and Go as conv is.
func (l *levels) add(dst, mq, sq []int8, ms, ss float64) {
	mq, sq = mq[:len(dst)], sq[:len(dst)]
	floor, s := l.floor, float64(l.scale)
	i := 0
	if n := len(dst) &^ 3; n > 0 && gemmLive != nil {
		requantAddAVX2(&dst[0], &mq[0], &sq[0], n, ms, ss, floor, s)
		i = n
	}
	for ; i < len(dst); i++ {
		dst[i] = clampQ(max(float64(ms*float64(mq[i]))+float64(ss*float64(sq[i])), floor) / s)
	}
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
// per image the int8 GEMM of the weight rows with the patch operand (see
// gemm.go: implicit in the image's phase planes where the host has the
// avx2 kernel, else an im2col pack multiplied by rows packed in pairs) and
// the per-channel BN rescale, ReLU and requantization of each
// output-channel row (see levels.conv). Bit-identical to computeRef, the
// reference loop in gemm_test.go.
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
	if plane == 0 {
		return out
	}
	m4, ld := (c.outC+3)&^3, (plane+3)&^3
	// The weight rows are read from the live image on every stage call,
	// inside the fetch bracket: a flip between two passes reaches the
	// second one.
	live := gemmLive
	var (
		g      implicitGeom
		wide   []int16
		koff   []int
		packed [][2]int64
		cols   []int8
	)
	if live != nil {
		g = c.implicitGeom(h, w, outH, outW)
		ld = g.p8
		ke := kCols + kCols&1
		wide = grow(&sc.wide, m4*ke)
		widenAVX2(wide, c.w, c.outC, kCols)
		koff = grow(&sc.koff, ke)
		c.offsets(&g, koff)
	} else {
		packed = grow(&sc.packed, m4/4*kCols)
		packPairs(c.w, packed, c.outC, kCols)
		cols = grow(&sc.cols, ld*kCols)
	}
	acc := grow(&sc.acc, m4*ld)
	// Effective multiplier from int32 accumulator to real value.
	accScale := float64(c.wScale) * float64(x.Scale)
	for img := 0; img < n; img++ {
		src := x.Q[img*ch*h*w:][:ch*h*w]
		rowLd := outW // the accumulator row length of one output row
		if live != nil {
			planes := grow(&sc.padded, g.size)
			g.split(planes, src, c.inC, h, w)
			live(wide, koff, planes, acc, m4, ld)
			rowLd = g.phW
		} else {
			c.im2col(src, h, w, outH, outW, cols, sc)
			gemmPacked(packed, cols, acc, m4, kCols, ld)
		}
		dst := out.Q[img*c.outC*plane:]
		for oc := 0; oc < c.outC; oc++ {
			c.lv.conv(dst[oc*plane:][:plane], acc[oc*ld:], outW, rowLd, float64(c.bn.a[oc]), float64(c.bn.b[oc]), accScale)
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
	b.lv.add(out.Q, main.Q, side.Q, float64(main.Scale), float64(side.Scale))
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
