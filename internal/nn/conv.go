package nn

import (
	"math/rand"
	"runtime"
	"sync"

	"radar/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs with square kernels,
// implemented as im2col + matrix multiply. Bias is omitted because every
// convolution in the ResNet family is followed by batch normalization.
type Conv2D struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	Weight         *Param // shape (OutC, InC*K*K)
	inShape        []int
	cols           []*tensor.Tensor // cached per-sample im2col matrices
	outH, outW     int
	cachedTrain    bool
}

// NewConv2D constructs a convolution with Kaiming-initialized weights.
// rng may be nil, in which case weights start at zero (useful when the
// caller loads weights afterwards).
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	if rng != nil {
		w.KaimingInit(rng, inC*k*k)
	}
	return &Conv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".weight", w, true),
	}
}

// Forward implements Layer. A batch fans out once, to min(N, GOMAXPROCS)
// workers that write straight into the output and, in eval mode, each reuse
// one im2col buffer; a single sample splits MatMul's rows instead.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InC {
		panic("nn: Conv2D input channel mismatch: " + c.name)
	}
	c.outH = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	c.inShape = append([]int(nil), x.Shape...)
	c.cachedTrain = train
	if train {
		c.cols = make([]*tensor.Tensor, n)
	}
	vol, plane := ch*h*w, c.outH*c.outW
	im2col := func(i int, buf []float32) *tensor.Tensor {
		sample := tensor.FromSlice(x.Data[i*vol:(i+1)*vol], ch, h, w)
		cols := tensor.Im2Col(buf, sample, c.K, c.K, c.Stride, c.Pad)
		if train {
			c.cols[i] = cols
		}
		return cols
	}
	if n == 1 {
		prod := tensor.MatMul(c.Weight.Value, im2col(0, nil)) // (OutC, plane)
		return prod.Reshape(1, c.OutC, c.outH, c.outW)
	}
	out := tensor.New(n, c.OutC, c.outH, c.outW)
	workers := min(n, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []float32
			for i := wk; i < n; i += workers {
				cols := im2col(i, buf)
				if !train {
					buf = cols.Data
				}
				dst := tensor.FromSlice(out.Data[i*c.OutC*plane:(i+1)*c.OutC*plane], c.OutC, plane)
				tensor.MatMulInto(dst, c.Weight.Value, cols)
			}
		}()
	}
	wg.Wait()
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.cachedTrain {
		panic("nn: Conv2D.Backward without train-mode Forward: " + c.name)
	}
	n := c.inShape[0]
	ch, h, w := c.inShape[1], c.inShape[2], c.inShape[3]
	plane := c.outH * c.outW
	dx := tensor.New(c.inShape...)

	type partial struct{ dW *tensor.Tensor }
	partials := make([]partial, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		run := func(i int) {
			g := tensor.FromSlice(grad.Data[i*c.OutC*plane:(i+1)*c.OutC*plane], c.OutC, plane)
			// dW_i = g · colsᵀ  → (OutC, InC*K*K)
			partials[i].dW = tensor.MatMulTransB(g, c.cols[i])
			// dcols = Wᵀ · g → (InC*K*K, plane)
			dcols := tensor.MatMulTransA(c.Weight.Value, g)
			dxi := tensor.Col2Im(dcols, ch, h, w, c.K, c.K, c.Stride, c.Pad)
			copy(dx.Data[i*ch*h*w:(i+1)*ch*h*w], dxi.Data)
		}
		if n > 1 {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		} else {
			run(i)
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		tensor.AddInPlace(c.Weight.Grad, partials[i].dW)
	}
	c.cols = nil // release the activation cache
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight} }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Linear is a fully-connected layer y = xWᵀ + b over (N, In) inputs.
type Linear struct {
	name    string
	In, Out int
	Weight  *Param // (Out, In)
	Bias    *Param // (Out)
	inCache *tensor.Tensor
}

// NewLinear constructs a fully-connected layer with Kaiming-initialized
// weights and zero bias.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := tensor.New(out, in)
	if rng != nil {
		w.KaimingInit(rng, in)
	}
	b := tensor.New(out)
	return &Linear{
		name: name, In: in, Out: out,
		Weight: NewParam(name+".weight", w, true),
		Bias:   NewParam(name+".bias", b, false),
	}
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 2 || x.Shape[1] != l.In {
		panic("nn: Linear input shape mismatch: " + l.name)
	}
	if train {
		l.inCache = x
	}
	out := tensor.MatMulTransB(x, l.Weight.Value) // (N, Out)
	n := x.Shape[0]
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.Bias.Value.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.inCache == nil {
		panic("nn: Linear.Backward without train-mode Forward: " + l.name)
	}
	// dW = gradᵀ · x ; dx = grad · W ; db = column sums of grad.
	dW := tensor.MatMulTransA(grad, l.inCache)
	tensor.AddInPlace(l.Weight.Grad, dW)
	n := grad.Shape[0]
	for i := 0; i < n; i++ {
		for j := 0; j < l.Out; j++ {
			l.Bias.Grad.Data[j] += grad.Data[i*l.Out+j]
		}
	}
	dx := tensor.MatMul(grad, l.Weight.Value)
	l.inCache = nil
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Name implements Layer.
func (l *Linear) Name() string { return l.name }
