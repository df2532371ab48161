package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"radar/internal/tensor"
)

// forwardRef is the forward walk as every stage's Forward into a fresh
// tensor: the obviously right version the in-place walk is held to. see,
// when not nil, is called after each leaf stage, as the walk calls it.
func forwardRef(layers []Layer, x *tensor.Tensor, train bool, see func(Layer, *tensor.Tensor)) *tensor.Tensor {
	for _, l := range layers {
		switch v := l.(type) {
		case *Sequential:
			x = forwardRef(v.Layers, x, train, see)
		case *BasicBlock:
			x = blockForwardRef(v, x, train, see)
		default:
			x = l.Forward(x, train)
			if see != nil {
				see(l, x)
			}
		}
	}
	return x
}

// blockForwardRef is the block's forward with a fresh tensor per stage and
// the residual sum in a fresh tensor too.
func blockForwardRef(b *BasicBlock, x *tensor.Tensor, train bool, see func(Layer, *tensor.Tensor)) *tensor.Tensor {
	main := forwardRef([]Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2}, x, train, see)
	side := x
	if b.DownConv != nil {
		side = forwardRef([]Layer{b.DownConv, b.DownBN}, x, train, see)
	}
	return forwardRef([]Layer{b.Relu2}, tensor.Add(main, side), train, see)
}

// netBackwardRef is Backward with every stage named in place: each leaf's
// Backward in reverse order, and a block's two branch gradients summed
// into a fresh tensor.
func netBackwardRef(layers []Layer, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(layers) - 1; i >= 0; i-- {
		switch v := layers[i].(type) {
		case *Sequential:
			grad = netBackwardRef(v.Layers, grad)
		case *BasicBlock:
			g := v.Relu2.Backward(grad)
			gMain := netBackwardRef([]Layer{v.Conv1, v.BN1, v.Relu1, v.Conv2, v.BN2}, g)
			gSide := g
			if v.DownConv != nil {
				gSide = netBackwardRef([]Layer{v.DownConv, v.DownBN}, g)
			}
			grad = tensor.Add(gMain, gSide)
		default:
			grad = v.Backward(grad)
		}
	}
	return grad
}

// walkNets are the topologies TestForwardMatchesRef runs: the zoo's tiny
// and resnet20s shapes and an ImageNet-style stem with its max pool, each
// with its input side.
var walkNets = []struct {
	name string
	cfg  ResNetConfig
	hw   int
}{
	{"tiny", ResNet20Config(4, 4), 8},
	{"resnet20s", ResNet20Config(8, 10), 16},
	{"imagenet-stem", ResNet18Config(4, 5, false), 32},
}

// buildWalkNet builds a net with random weights, random BN affine
// parameters and running statistics warmed by one train-mode pass, the
// same for the same seed.
func buildWalkNet(cfg ResNetConfig, hw int, seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	net := BuildResNet(cfg, rng)
	net.Visit(func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			bn.Gamma.Value.RandNormal(rng, 1)
			bn.Beta.Value.RandNormal(rng, 1)
		}
	})
	warm := tensor.New(4, cfg.InChannels, hw, hw)
	warm.RandNormal(rng, 1)
	net.Forward(warm, true)
	return net
}

func batchNorms(net *Sequential) []*BatchNorm2D {
	var bns []*BatchNorm2D
	net.Visit(func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			bns = append(bns, bn)
		}
	})
	return bns
}

func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestForwardMatchesRef pins the in-place walk to forwardRef bit for bit:
// eval logits; train logits, the input gradient and every parameter
// gradient after Backward, and every BN's running statistics, with
// FrozenStats off and on; and the observer, called once per leaf stage in
// Visit order on the values forwardRef's stages produce. The caller's
// batch is left as it was throughout.
func TestForwardMatchesRef(t *testing.T) {
	for _, tc := range walkNets {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			x := tensor.New(3, tc.cfg.InChannels, tc.hw, tc.hw)
			x.RandNormal(rng, 1)
			before := slices.Clone(x.Data)

			net := buildWalkNet(tc.cfg, tc.hw, 5)
			want := forwardRef(net.Layers, x, false, nil)
			sameBits(t, "eval logits", net.Forward(x, false).Data, want.Data)
			sameBits(t, "Eval logits", net.Eval(x, nil).Data, want.Data)

			var order []Layer
			net.Visit(func(l Layer) { order = append(order, l) })
			type seen struct {
				l   Layer
				out []float32
			}
			record := func(into *[]seen) func(Layer, *tensor.Tensor) {
				return func(l Layer, out *tensor.Tensor) { *into = append(*into, seen{l, slices.Clone(out.Data)}) }
			}
			var got, ref []seen
			net.Eval(x, record(&got))
			forwardRef(net.Layers, x, false, record(&ref))
			if len(got) != len(order) || len(ref) != len(order) {
				t.Fatalf("see called %d times, reference %d, want once per leaf stage (%d)", len(got), len(ref), len(order))
			}
			for i, s := range got {
				if s.l != order[i] || ref[i].l != order[i] {
					t.Fatalf("stage %d: see got %s, reference %s, want %s", i, s.l.Name(), ref[i].l.Name(), order[i].Name())
				}
				sameBits(t, "see("+s.l.Name()+")", s.out, ref[i].out)
			}

			for _, frozen := range []bool{false, true} {
				a, b := buildWalkNet(tc.cfg, tc.hw, 7), buildWalkNet(tc.cfg, tc.hw, 7)
				for _, n := range []*Sequential{a, b} {
					for _, bn := range batchNorms(n) {
						bn.FrozenStats = frozen
					}
				}
				out := a.Forward(x, true)
				sameBits(t, "train logits", out.Data, forwardRef(b.Layers, x, true, nil).Data)
				grad := tensor.New(out.Shape...)
				grad.RandNormal(rng, 1)
				sameBits(t, "input gradient", a.Backward(grad).Data, netBackwardRef(b.Layers, grad).Data)
				pb := b.Params()
				for i, p := range a.Params() {
					sameBits(t, p.Name+" gradient", p.Grad.Data, pb[i].Grad.Data)
				}
				bb := batchNorms(b)
				for i, bn := range batchNorms(a) {
					sameBits64(t, bn.Name()+" running mean", bn.RunningMean, bb[i].RunningMean)
					sameBits64(t, bn.Name()+" running variance", bn.RunningVar, bb[i].RunningVar)
				}
			}
			sameBits(t, "caller's batch", x.Data, before)
		})
	}
}

// TestWalkLeavesCallerInput runs containers whose first stage would write
// over its input if the walk owned it: a ReLU, a batch norm, a Flatten
// view, a nested Sequential and an identity-shortcut block, whose residual
// add must not land in the caller's tensor. In both modes the output
// matches forwardRef and the caller's tensor is left as it was.
func TestWalkLeavesCallerInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bn := NewBatchNorm2D("bn", 3)
	bn.Beta.Value.RandNormal(rng, 1)
	for _, s := range []*Sequential{
		NewSequential("relu-first", NewReLU("r"), NewBatchNorm2D("bn2", 3)),
		NewSequential("bn-first", bn, NewReLU("r")),
		NewSequential("flatten-first", NewFlatten("f"), NewReLU("r")),
		NewSequential("nested", NewSequential("inner", NewReLU("r")), NewReLU("r2")),
		NewSequential("block-first", NewBasicBlock("b", 3, 3, 1, rng)),
	} {
		t.Run(s.Name(), func(t *testing.T) {
			x := tensor.New(2, 3, 4, 4)
			x.RandNormal(rng, 1)
			before := slices.Clone(x.Data)
			for _, train := range []bool{false, true} {
				want := forwardRef(s.Layers, x, train, nil)
				sameBits(t, "caller's tensor after the reference", x.Data, before)
				sameBits(t, "output", s.Forward(x, train).Data, want.Data)
				sameBits(t, "caller's tensor", x.Data, before)
			}
			s.Eval(x, func(Layer, *tensor.Tensor) {})
			sameBits(t, "caller's tensor after Eval", x.Data, before)
		})
	}
}

// BenchmarkNetForward times one eval-mode pass of resnet20s's topology on
// a batch of 64: the trial pass PBFA runs a dozen times per flip.
func BenchmarkNetForward(b *testing.B) {
	net := buildWalkNet(ResNet20Config(8, 10), 16, 1)
	x := tensor.New(64, 3, 16, 16)
	x.RandNormal(rand.New(rand.NewSource(2)), 1)
	b.ReportAllocs()
	for b.Loop() {
		net.Forward(x, false)
	}
}
