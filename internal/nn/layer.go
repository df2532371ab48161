// Package nn implements the neural-network substrate for the RADAR
// reproduction: convolution, batch normalization, activation, pooling and
// fully-connected layers with manual backpropagation, residual (ResNet)
// blocks, softmax cross-entropy loss and SGD/Adam optimizers. Everything is
// pure Go on top of internal/tensor.
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

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
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
