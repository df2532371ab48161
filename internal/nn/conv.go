package nn

import (
	"math/rand"

	"radar/internal/cpu"
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

// Forward implements Layer. The batch fans out once, over samples, through
// cpu.Parallel: each sample's product is written straight into the output,
// and in eval mode each worker reuses one im2col buffer.
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
	out := tensor.New(n, c.OutC, c.outH, c.outW)
	workers := cpu.Workers(0, n)
	bufs := make([][]float32, workers)
	cpu.Parallel(workers, n, func(wk, i int) {
		sample := tensor.FromSlice(x.Data[i*vol:(i+1)*vol], ch, h, w)
		cols := tensor.Im2Col(bufs[wk], sample, c.K, c.K, c.Stride, c.Pad)
		if train {
			c.cols[i] = cols
		} else {
			bufs[wk] = cols.Data
		}
		dst := tensor.FromSlice(out.Data[i*c.OutC*plane:(i+1)*c.OutC*plane], c.OutC, plane)
		tensor.MatMulInto(dst, c.Weight.Value, cols)
	})
	return out
}

// Backward implements Layer. The batch fans out once, over samples: sample
// i's weight gradient g_i·cols_iᵀ goes to its own slot, its column
// gradient Wᵀ·g_i to its worker's buffer, folded straight into dx. The
// slots are then added to Weight.Grad in sample order, so the result is
// independent of scheduling.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.cachedTrain {
		panic("nn: Conv2D.Backward without train-mode Forward: " + c.name)
	}
	n := c.inShape[0]
	ch, h, w := c.inShape[1], c.inShape[2], c.inShape[3]
	vol, plane := ch*h*w, c.outH*c.outW
	dx := tensor.New(c.inShape...)
	wsize, rows := c.Weight.Value.Len(), ch*c.K*c.K
	dW := make([]float32, n*wsize)
	// Wᵀ·g as a plain product over the transposed weights: the bits of
	// MatMulTransA(W, g), into a reused buffer.
	wt := tensor.Transpose(c.Weight.Value)
	workers := cpu.Workers(0, n)
	dcols := make([]float32, workers*rows*plane)
	cpu.Parallel(workers, n, func(wk, i int) {
		g := tensor.FromSlice(grad.Data[i*c.OutC*plane:(i+1)*c.OutC*plane], c.OutC, plane)
		tensor.MatMulTransB(dW[i*wsize:(i+1)*wsize], g, c.cols[i])
		d := tensor.FromSlice(dcols[wk*rows*plane:(wk+1)*rows*plane], rows, plane)
		tensor.MatMulInto(d, wt, g)
		tensor.Col2Im(dx.Data[i*vol:(i+1)*vol], d, ch, h, w, c.K, c.K, c.Stride, c.Pad)
	})
	for i := 0; i < n; i++ {
		tensor.AddInPlace(c.Weight.Grad, tensor.FromSlice(dW[i*wsize:(i+1)*wsize], c.Weight.Grad.Shape...))
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
	out := tensor.MatMulTransB(nil, x, l.Weight.Value) // (N, Out)
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
