package nn

import (
	"math"

	"radar/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward implements Layer: Eval into a fresh tensor, recording in train
// mode which inputs passed.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.mask = make([]bool, x.Len())
		for i, v := range x.Data {
			r.mask[i] = v > 0
		}
	}
	return r.Eval(tensor.New(x.Shape...), x)
}

// Eval writes max(x, 0) into dst, elementwise, and returns dst: an input
// that is not above zero (−0 and NaN among them) becomes +0. dst may be x.
// It tests bits, not values: the float32s above zero are exactly those
// whose bits b satisfy 0 < b ≤ bits(+Inf), and a compare of two integers
// needs no branch, where v > 0 mispredicts on activations of either sign.
func (r *ReLU) Eval(dst, x *tensor.Tensor) *tensor.Tensor {
	out := dst.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float32bits(v)
		if b-1 >= 0x7f800000 {
			b = 0
		}
		out[i] = math.Float32frombits(b)
	}
	return dst
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward without train-mode Forward: " + r.name)
	}
	out := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		if r.mask[i] {
			out.Data[i] = g
		}
	}
	r.mask = nil
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// GlobalAvgPool averages each (H, W) plane of a (N, C, H, W) tensor,
// producing (N, C).
type GlobalAvgPool struct {
	name string
	h, w int
}

// NewGlobalAvgPool constructs the pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.h, g.w = x.Shape[2], x.Shape[3]
	return tensor.GlobalAvgPool(x)
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.GlobalAvgPoolBackward(grad, g.h, g.w)
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// MaxPool2 is 2×2 max pooling with stride 2.
type MaxPool2 struct {
	name    string
	arg     []int32
	inShape []int
}

// NewMaxPool2 constructs the pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

// Forward implements Layer.
func (m *MaxPool2) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, arg := tensor.MaxPool2(x)
	if train {
		m.arg = arg
		m.inShape = append([]int(nil), x.Shape...)
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.arg == nil {
		panic("nn: MaxPool2.Backward without train-mode Forward: " + m.name)
	}
	out := tensor.MaxPool2Backward(grad, m.arg, m.inShape)
	m.arg = nil
	return out
}

// Params implements Layer.
func (m *MaxPool2) Params() []*Param { return nil }

// Name implements Layer.
func (m *MaxPool2) Name() string { return m.name }

// Flatten reshapes (N, C, H, W) to (N, C*H*W).
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten constructs the layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }
