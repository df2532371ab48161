package nn

import (
	"math/rand"

	"radar/internal/tensor"
)

// BasicBlock is the ResNet v1 basic residual block:
//
//	out = ReLU( BN2(Conv2( ReLU(BN1(Conv1(x))) )) + shortcut(x) )
//
// where shortcut is identity when shapes match and a strided 1×1
// convolution + BN otherwise (option B of He et al.).
type BasicBlock struct {
	name string

	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Relu1 *ReLU
	Conv2 *Conv2D
	BN2   *BatchNorm2D

	// Downsample is nil for identity shortcuts.
	DownConv *Conv2D
	DownBN   *BatchNorm2D

	Relu2 *ReLU
}

// NewBasicBlock constructs a residual block mapping inC→outC channels with
// the given stride on the first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *rand.Rand) *BasicBlock {
	b := &BasicBlock{
		name:  name,
		Conv1: NewConv2D(name+".conv1", inC, outC, 3, stride, 1, rng),
		BN1:   NewBatchNorm2D(name+".bn1", outC),
		Relu1: NewReLU(name + ".relu1"),
		Conv2: NewConv2D(name+".conv2", outC, outC, 3, 1, 1, rng),
		BN2:   NewBatchNorm2D(name+".bn2", outC),
		Relu2: NewReLU(name + ".relu2"),
	}
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2D(name+".down.conv", inC, outC, 1, stride, 0, rng)
		b.DownBN = NewBatchNorm2D(name+".down.bn", outC)
	}
	return b
}

// Forward implements Layer: the walk of a container holding only b.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, _ := walk([]Layer{b}, x, false, train, nil)
	return out
}

// Backward implements Layer. The add fans the gradient out to both
// branches unchanged.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.Relu2.Backward(grad)
	main, side := b.branches()
	return tensor.AddInPlace(backward(main, g), backward(side, g))
}

// Params implements Layer in stage order, by which quant.Quantize numbers layers.
func (b *BasicBlock) Params() []*Param { return params(b.stages()) }

// branches lists the block's two paths to the add in walk order: the main
// branch, and the downsample branch, empty for an identity shortcut.
func (b *BasicBlock) branches() (main, side []Layer) {
	main = []Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2}
	if b.DownConv != nil {
		side = []Layer{b.DownConv, b.DownBN}
	}
	return main, side
}

// stages lists the block's leaf layers in walk order: both branches, then
// the ReLU after the add.
func (b *BasicBlock) stages() []Layer {
	main, side := b.branches()
	return append(append(main, side...), b.Relu2)
}

// Name implements Layer.
func (b *BasicBlock) Name() string { return b.name }
