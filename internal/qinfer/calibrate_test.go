package qinfer

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"radar/internal/model"
	"radar/internal/nn"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// calibrateRef is calibrate as every stage's Forward into a fresh tensor:
// the obviously right version the in-place pass is held to.
func (e *Engine) calibrateRef(net *nn.Sequential, calib *tensor.Tensor) {
	e.inScale = calib.MaxAbs() / 127
	if e.inScale == 0 {
		e.inScale = 1
	}
	x := calib
	scaleOf := func(t *tensor.Tensor) float32 {
		s := t.MaxAbs() / 127
		if s == 0 {
			s = 1
		}
		return s
	}
	setStage := func(c *qconv, t *tensor.Tensor) { c.lv = newLevels(scaleOf(t), c.relu) }
	bi := 0
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Conv2D, *nn.BatchNorm2D, *nn.ReLU, *nn.MaxPool2:
			x = l.Forward(x, false)
			if _, isRelu := v.(*nn.ReLU); isRelu && e.stem.lv == nil {
				setStage(e.stem, x)
			}
		case *nn.BasicBlock:
			// Observe the block's internal stages in float.
			mid := v.Conv1.Forward(x, false)
			mid = v.BN1.Forward(mid, false)
			mid = v.Relu1.Forward(mid, false)
			setStage(e.blocks[bi].conv1, mid)
			main := v.Conv2.Forward(mid, false)
			main = v.BN2.Forward(main, false)
			setStage(e.blocks[bi].conv2, main)
			side := x
			if v.DownConv != nil {
				side = v.DownConv.Forward(x, false)
				side = v.DownBN.Forward(side, false)
				setStage(e.blocks[bi].down, side)
			}
			sum := tensor.Add(main, side)
			out := v.Relu2.Forward(sum, false)
			e.blocks[bi].lv = newLevels(scaleOf(out), true)
			x = out
			bi++
		}
	}
}

// TestCalibrateMatchesRef pins the in-place calibration pass to
// calibrateRef: the input scale and every stage's and block's activation
// scale equal bit for bit, on tiny, resnet20s and an ImageNet-style stem
// (with its max pool). The caller's calibration batch is left as it was.
func TestCalibrateMatchesRef(t *testing.T) {
	type net struct {
		net   *nn.Sequential
		qm    *quant.Model
		calib *tensor.Tensor
	}
	nets := map[string]func() net{
		"imagenet-stem": func() net {
			rng := rand.New(rand.NewSource(3))
			n := nn.BuildResNet(nn.ResNet18Config(4, 5, false), rng)
			warm := tensor.New(4, 3, 32, 32)
			warm.RandNormal(rng, 1)
			n.Forward(warm, true) // sane BN statistics
			calib := tensor.New(8, 3, 32, 32)
			calib.RandNormal(rng, 1)
			return net{n, quant.Quantize(n), calib}
		},
	}
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		nets[spec.Name] = func() net {
			b := model.Load(spec)
			calib, _ := b.Attack.Batch(0, 64)
			return net{b.Net, b.QModel, calib}
		}
	}
	for name, build := range nets {
		t.Run(name, func(t *testing.T) {
			n := build()
			before := slices.Clone(n.calib.Data)
			got, err := Compile(n.net, n.qm, n.calib)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(n.calib.Data, before) {
				t.Fatal("calibrate wrote to the caller's calibration batch")
			}
			want, _ := Compile(n.net, n.qm, n.calib)
			want.stem.lv = nil // calibrateRef sets the stem at the first ReLU it meets
			want.calibrateRef(n.net, n.calib)
			same := func(what string, g, w float32) {
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Errorf("%s scale is %v (%#08x), reference %v (%#08x)", what, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
			same("input", got.inScale, want.inScale)
			for i, c := range got.convs() {
				same(c.name, c.lv.scale, want.convs()[i].lv.scale)
			}
			for i, b := range got.blocks {
				same("block "+b.conv1.name, b.lv.scale, want.blocks[i].lv.scale)
			}
		})
	}
}
