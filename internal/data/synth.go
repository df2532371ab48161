// Package data generates the deterministic synthetic image-classification
// datasets that stand in for CIFAR-10 and ImageNet in this offline
// reproduction (see README.md §Experiments). Each class is defined by a
// random but fixed combination of oriented sinusoid textures; samples add
// per-image phase jitter, amplitude variation and Gaussian noise, so the
// task is learnable but not trivial and gradients through a trained model
// are informative — which is all PBFA and RADAR require of the data.
package data

import (
	"math"
	"math/rand"

	"radar/internal/cpu"
	"radar/internal/tensor"
)

// Dataset is an in-memory labeled image set with shape (N, C, H, W).
type Dataset struct {
	// X holds the images.
	X *tensor.Tensor
	// Labels holds the class index of each image.
	Labels []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Shape[0] }

// Batch copies samples [lo,hi) into a fresh tensor + label slice.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	n, c, h, w := d.X.Shape[0], d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	if lo < 0 || hi > n || lo >= hi {
		panic("data: bad batch range")
	}
	bn := hi - lo
	x := tensor.New(bn, c, h, w)
	copy(x.Data, d.X.Data[lo*c*h*w:hi*c*h*w])
	return x, d.Labels[lo:hi]
}

// Subset returns a view dataset containing the samples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	sz := c * h * w
	for i, j := range idx {
		copy(x.Data[i*sz:(i+1)*sz], d.X.Data[j*sz:(j+1)*sz])
		labels[i] = d.Labels[j]
	}
	return &Dataset{X: x, Labels: labels, Classes: d.Classes}
}

// Shuffle permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	sz := d.X.Len() / n
	tmp := make([]float32, sz)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		copy(tmp, d.X.Data[i*sz:(i+1)*sz])
		copy(d.X.Data[i*sz:(i+1)*sz], d.X.Data[j*sz:(j+1)*sz])
		copy(d.X.Data[j*sz:(j+1)*sz], tmp)
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	}
}

// SynthConfig parameterizes a synthetic dataset family.
type SynthConfig struct {
	// Classes is the number of classes.
	Classes int
	// Size is the square image side length.
	Size int
	// Channels is the image channel count.
	Channels int
	// Waves is the number of sinusoid components per class prototype.
	Waves int
	// Noise is the additive Gaussian noise standard deviation.
	Noise float64
	// Confuse is the maximum blend fraction of a random other class's
	// prototype mixed into each sample. Values near 0.5 make samples
	// genuinely ambiguous, setting a realistic accuracy ceiling (conv nets
	// average pure pixel noise away, so noise alone cannot do this).
	Confuse float64
	// Seed fixes the class prototypes; a dataset generated twice with the
	// same seed and sample count is identical.
	Seed int64
}

// SynthCIFAR returns the configuration standing in for CIFAR-10:
// 10 classes of 3×16×16 images.
func SynthCIFAR() SynthConfig {
	return SynthConfig{Classes: 10, Size: 16, Channels: 3, Waves: 3, Noise: 0.5, Confuse: 0.58, Seed: 1001}
}

// SynthImageNet returns the configuration standing in for ImageNet:
// 20 classes of 3×32×32 images with more texture components and noise,
// making the task harder than SynthCIFAR.
func SynthImageNet() SynthConfig {
	return SynthConfig{Classes: 20, Size: 32, Channels: 3, Waves: 4, Noise: 0.6, Confuse: 1.0, Seed: 2002}
}

// classProto is one sinusoid component of a class prototype. arg holds
// fx·x + fy·y + phase at each pixel of its plane, row-major: the part of
// the sine's argument no image changes.
type classProto struct {
	amp     float64
	channel int
	arg     []float64
}

// header is one image's random draws other than its noise: its class, the
// phase jitter and amplitude of its textures, and the weight alpha of the
// other class blended into it.
type header struct {
	class, other          int
	jitter, ampJit, alpha float64
}

// Generate synthesizes n samples from cfg using the stream identified by
// streamSeed (different streams share class prototypes but draw disjoint
// noise/jitter, so train/test splits are honest).
//
// A serial pass draws every random value in stream order, each image's
// header and then its noise, which it stores in the image's pixels. The
// images' sinusoids are then summed in parallel, one image per task, into
// a buffer per worker, and the noise added last, so each pixel is the same
// float32 sum, in the same order, as when one loop did both.
func Generate(cfg SynthConfig, n int, streamSeed int64) *Dataset {
	protoRng := rand.New(rand.NewSource(cfg.Seed))
	plane := cfg.Size * cfg.Size
	protos := make([][]classProto, cfg.Classes)
	for c := range protos {
		comps := make([]classProto, cfg.Waves)
		for i := range comps {
			fx := (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.Size)
			fy := (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.Size)
			phase := protoRng.Float64() * 2 * math.Pi
			p := classProto{amp: 0.6 + protoRng.Float64()*0.8, channel: protoRng.Intn(cfg.Channels), arg: make([]float64, plane)}
			for yy := 0; yy < cfg.Size; yy++ {
				for xx := 0; xx < cfg.Size; xx++ {
					p.arg[yy*cfg.Size+xx] = fx*float64(xx) + fy*float64(yy) + phase
				}
			}
			comps[i] = p
		}
		protos[c] = comps
	}

	rng := rand.New(rand.NewSource(streamSeed ^ cfg.Seed<<1))
	x := tensor.New(n, cfg.Channels, cfg.Size, cfg.Size)
	labels := make([]int, n)
	heads := make([]header, n)
	sz := cfg.Channels * plane
	for i := range heads {
		h := &heads[i]
		h.class = rng.Intn(cfg.Classes)
		labels[i] = h.class
		h.jitter = rng.Float64() * 2 * math.Pi
		h.ampJit = 0.8 + rng.Float64()*0.4
		// Blend in a random other class to create genuinely ambiguous
		// samples (α near 0.5 is a coin toss even for an ideal classifier).
		if cfg.Confuse > 0 && cfg.Classes > 1 {
			h.alpha = rng.Float64() * cfg.Confuse
			if h.alpha > 0.5 {
				h.alpha = 0.5 // a 50/50 blend is maximally ambiguous
			}
		}
		if h.alpha > 0 {
			h.other = rng.Intn(cfg.Classes - 1)
			if h.other >= h.class {
				h.other++
			}
		}
		img := x.Data[i*sz : (i+1)*sz]
		for j := range img {
			img[j] = float32(rng.NormFloat64() * cfg.Noise)
		}
	}

	acc := make([][]float32, cpu.Workers(0, n))
	cpu.Parallel(0, n, func(w, i int) {
		if acc[w] == nil {
			acc[w] = make([]float32, sz)
		}
		a, h := acc[w], &heads[i]
		clear(a)
		shift := h.jitter * 0.15
		addProto := func(class int, weight float64) {
			for _, p := range protos[class] {
				amp := weight * p.amp * h.ampJit
				dst := a[p.channel*plane:][:len(p.arg)]
				for t, arg := range p.arg {
					dst[t] += float32(amp * math.Sin(arg+shift))
				}
			}
		}
		addProto(h.class, 1-h.alpha)
		if h.alpha > 0 {
			addProto(h.other, h.alpha)
		}
		img := x.Data[i*sz : (i+1)*sz]
		for j := range img {
			img[j] = a[j] + img[j]
		}
	})
	return &Dataset{X: x, Labels: labels, Classes: cfg.Classes}
}
