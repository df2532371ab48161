package nn

import (
	"fmt"
	"math/rand"
)

// ResNetConfig describes a ResNet topology in the v1 CIFAR/ImageNet basic-
// block family. Width scaling (for tractable pure-Go training) keeps the
// exact depth and wiring of the paper's models while shrinking channel
// counts; see README.md §Experiments.
type ResNetConfig struct {
	// Name labels the model, e.g. "resnet20s".
	Name string
	// StageChannels lists the output channels of each stage.
	StageChannels []int
	// StageBlocks lists the number of basic blocks per stage.
	StageBlocks []int
	// NumClasses sets the classifier width.
	NumClasses int
	// InChannels is the image channel count (3 for RGB).
	InChannels int
	// StemKernel/StemStride/StemPad configure the first convolution
	// (3/1/1 for CIFAR-style, 7/2/3 for ImageNet-style).
	StemKernel, StemStride, StemPad int
	// StemPool adds a 2×2 max pool after the stem (ImageNet-style).
	StemPool bool
}

// ResNet20Config returns the CIFAR-style 3-stage, 3-blocks-per-stage
// topology of ResNet-20 with the given base width (the paper's model uses
// base 16; the scaled training model uses 8).
func ResNet20Config(base, classes int) ResNetConfig {
	return ResNetConfig{
		Name:          fmt.Sprintf("resnet20-w%d", base),
		StageChannels: []int{base, 2 * base, 4 * base},
		StageBlocks:   []int{3, 3, 3},
		NumClasses:    classes,
		InChannels:    3,
		StemKernel:    3, StemStride: 1, StemPad: 1,
	}
}

// ResNet18Config returns the ImageNet-style 4-stage, 2-blocks-per-stage
// topology of ResNet-18 with the given base width (the paper's model uses
// base 64; the scaled training model uses 16) and a CIFAR-style stem when
// smallStem is true (used for 32×32 synthetic inputs).
func ResNet18Config(base, classes int, smallStem bool) ResNetConfig {
	cfg := ResNetConfig{
		Name:          fmt.Sprintf("resnet18-w%d", base),
		StageChannels: []int{base, 2 * base, 4 * base, 8 * base},
		StageBlocks:   []int{2, 2, 2, 2},
		NumClasses:    classes,
		InChannels:    3,
	}
	if smallStem {
		cfg.StemKernel, cfg.StemStride, cfg.StemPad = 3, 1, 1
	} else {
		cfg.StemKernel, cfg.StemStride, cfg.StemPad = 7, 2, 3
		cfg.StemPool = true
	}
	return cfg
}

// BuildResNet constructs the model described by cfg. rng seeds the weight
// initialization; pass nil to build a zero-weight skeleton (e.g. when
// loading a checkpoint).
func BuildResNet(cfg ResNetConfig, rng *rand.Rand) *Sequential {
	model := NewSequential(cfg.Name)
	c0 := cfg.StageChannels[0]
	model.Add(NewConv2D("stem.conv", cfg.InChannels, c0, cfg.StemKernel, cfg.StemStride, cfg.StemPad, rng))
	model.Add(NewBatchNorm2D("stem.bn", c0))
	model.Add(NewReLU("stem.relu"))
	if cfg.StemPool {
		model.Add(NewMaxPool2("stem.pool"))
	}
	inC := c0
	for s, outC := range cfg.StageChannels {
		for b := 0; b < cfg.StageBlocks[s]; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			name := fmt.Sprintf("stage%d.block%d", s+1, b)
			model.Add(NewBasicBlock(name, inC, outC, stride, rng))
			inC = outC
		}
	}
	model.Add(NewGlobalAvgPool("gap"))
	model.Add(NewLinear("fc", inC, cfg.NumClasses, rng))
	return model
}
