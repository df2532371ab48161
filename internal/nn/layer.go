// Package nn implements the neural-network substrate for the RADAR
// reproduction: convolution, batch normalization, activation, pooling and
// fully-connected layers with manual backpropagation, residual (ResNet)
// blocks, softmax cross-entropy loss and SGD/Adam optimizers. Everything is
// pure Go on top of internal/tensor.
//
// A container's Forward is one walk over its stages in both modes: in
// place where the walk owns the tensor, and observable (Sequential.Eval).
package nn

import "radar/internal/tensor"

// Param is a trainable parameter: a value tensor plus its gradient
// accumulator. Optimizers may attach per-parameter state keyed by the
// parameter pointer.
type Param struct {
	// Name identifies the parameter for reporting and model serialization,
	// e.g. "stage1.block0.conv1.weight".
	Name string
	// Value holds the current parameter values.
	Value *tensor.Tensor
	// Grad accumulates ∂L/∂Value across a backward pass.
	Grad *tensor.Tensor
	// WeightDecay indicates whether L2 regularization applies (true for
	// conv/linear weights, false for BN affine parameters and biases).
	WeightDecay bool
}

// NewParam allocates a parameter with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor, decay bool) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape...), WeightDecay: decay}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward must cache whatever Backward
// needs; Backward consumes the cached state, accumulates parameter
// gradients, and returns the gradient with respect to its input.
//
// A container may overwrite the tensor a child's Forward returns, so a
// leaf must never keep its own output by reference for Backward, nor
// return its input (Flatten's view is the one exception the walk knows).
type Layer interface {
	// Forward computes the layer output. When train is true the layer may
	// update internal statistics (e.g. batch-norm running moments) and must
	// cache activations for Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient,
	// accumulating parameter gradients along the way. It must be called
	// after a Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Name returns a short human-readable identifier.
	Name() string
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer
	label  string
}

// NewSequential builds a named sequential container.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, label: label}
}

// Add appends a layer and returns the container for chaining.
func (s *Sequential) Add(l Layer) *Sequential {
	s.Layers = append(s.Layers, l)
	return s
}

// Forward implements Layer: the container's walk with no observer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, _ := walk(s.Layers, x, false, train, nil)
	return out
}

// Eval runs the eval-mode walk on x, leaving x as it was. see, when not
// nil, is called after each leaf stage, in Visit order, with the tensor that
// stage produced, valid only during the call: a later stage may overwrite it.
func (s *Sequential) Eval(x *tensor.Tensor, see func(l Layer, out *tensor.Tensor)) *tensor.Tensor {
	out, _ := walk(s.Layers, x, false, false, see)
	return out
}

// walk is the one forward body of Sequential and BasicBlock. It returns the
// output and whether it owns it: a fresh conv, pool, linear or block output,
// never the caller's input or a Flatten view. Eval-mode BN and ReLU write
// over a tensor the walk owns.
func walk(layers []Layer, x *tensor.Tensor, owned, train bool, see func(Layer, *tensor.Tensor)) (*tensor.Tensor, bool) {
	for _, l := range layers {
		switch v := l.(type) {
		case *Sequential:
			x, owned = walk(v.Layers, x, owned, train, see)
			continue
		case *BasicBlock:
			// The add goes into the main branch's fresh output in both
			// modes: Backward needs neither addend.
			main, side := v.branches()
			sum, _ := walk(main, x, false, train, see)
			shortcut, _ := walk(side, x, false, train, see) // x for an identity shortcut
			x, owned = walk([]Layer{v.Relu2}, tensor.AddInPlace(sum, shortcut), true, train, see)
			continue
		case evaler:
			if owned && !train {
				v.Eval(x, x)
			} else {
				x, owned = l.Forward(x, train), true
			}
		case *Flatten:
			x, owned = l.Forward(x, train), false
		default:
			x, owned = l.Forward(x, train), true
		}
		if see != nil {
			see(l, x)
		}
	}
	return x, owned
}

// evaler is a leaf whose Eval may write over its input: BN and ReLU.
type evaler interface {
	Eval(dst, x *tensor.Tensor) *tensor.Tensor
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor { return backward(s.Layers, grad) }

// backward runs the layers' Backward in reverse order.
func backward(layers []Layer, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param { return params(s.Layers) }

// params concatenates the layers' parameters in order.
func params(layers []Layer) []*Param {
	var ps []*Param
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.label }

// ZeroGrad clears every parameter gradient in the container.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}
