// Package data generates the deterministic synthetic image-classification
// datasets that stand in for CIFAR-10 and ImageNet in this offline
// reproduction (see README.md §Experiments). Each class is defined by a
// random but fixed combination of oriented sinusoid textures; samples add
// per-image phase jitter, amplitude variation and Gaussian noise, so the
// task is learnable but not trivial and gradients through a trained model
// are informative — which is all PBFA and RADAR require of the data.
//
// Images are drawn on first read: Generate returns at once, and a read
// draws the prefix of the stream it needs, under the dataset's own lock.
// A serving replica that calibrates on 64 attack images never draws its
// bundle's test set.
package data

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"radar/internal/cpu"
	"radar/internal/tensor"
)

// Dataset is a labeled image set with shape (N, C, H, W). A generated set
// draws its images on first read, a prefix at a time, in stream order;
// every method is safe for concurrent use.
type Dataset struct {
	// Classes is the number of distinct labels.
	Classes int

	n, sz int    // images, and floats per image
	shape [3]int // C, H, W

	// mu guards what follows: reads materialize under it.
	mu sync.Mutex
	// pixels and labels hold images [0, ready), each sz floats.
	pixels []float32
	labels []int
	ready  int
	src    *stream // draws images ready, ready+1, ...; nil once all are drawn
}

// Len returns the number of samples. It draws nothing.
func (d *Dataset) Len() int { return d.n }

// Batch copies samples [lo,hi) into a fresh tensor + label slice, drawing
// the images through hi first.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > d.n || lo >= hi {
		panic("data: bad batch range")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.materialize(hi)
	x := tensor.New(hi-lo, d.shape[0], d.shape[1], d.shape[2])
	copy(x.Data, d.pixels[lo*d.sz:hi*d.sz])
	return x, slices.Clone(d.labels[lo:hi])
}

// Subset returns a dataset holding the samples at the given indices, drawing
// the images through the largest index first.
func (d *Dataset) Subset(idx []int) *Dataset {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(idx) > 0 {
		last := slices.Max(idx)
		if last >= d.n {
			panic("data: sample index out of range")
		}
		d.materialize(last + 1)
	}
	s := &Dataset{Classes: d.Classes, n: len(idx), sz: d.sz, shape: d.shape, ready: len(idx),
		pixels: make([]float32, len(idx)*d.sz), labels: make([]int, len(idx))}
	for i, j := range idx {
		copy(s.pixels[i*d.sz:(i+1)*d.sz], d.pixels[j*d.sz:(j+1)*d.sz])
		s.labels[i] = d.labels[j]
	}
	return s
}

// Shuffle draws every image, then permutes the dataset in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.materialize(d.n)
	sz := d.sz
	tmp := make([]float32, sz)
	for i := d.n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		copy(tmp, d.pixels[i*sz:(i+1)*sz])
		copy(d.pixels[i*sz:(i+1)*sz], d.pixels[j*sz:(j+1)*sz])
		copy(d.pixels[j*sz:(j+1)*sz], tmp)
		d.labels[i], d.labels[j] = d.labels[j], d.labels[i]
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

// stream is the random source of a generated dataset: the class
// prototypes, built on first use, and the generator positioned at the
// next undrawn image.
type stream struct {
	cfg    SynthConfig
	seed   int64
	protos [][]classProto
	rng    *rand.Rand
}

// Generate returns n samples from cfg on the stream identified by
// streamSeed (different streams share class prototypes but draw disjoint
// noise/jitter, so train/test splits are honest). It draws nothing: each
// read draws the images it needs (see Dataset). Every random value is
// drawn in stream order, so image k has the same bits whatever n is and
// whatever was read before it.
func Generate(cfg SynthConfig, n int, streamSeed int64) *Dataset {
	return &Dataset{
		Classes: cfg.Classes,
		n:       n,
		sz:      cfg.Channels * cfg.Size * cfg.Size,
		shape:   [3]int{cfg.Channels, cfg.Size, cfg.Size},
		src:     &stream{cfg: cfg, seed: streamSeed},
	}
}

// materialize draws images [d.ready, hi) when hi is past them; d.mu is held.
//
// A serial pass draws every random value in stream order, each image's
// header and then its noise, which it stores in the image's pixels. The
// images' sinusoids are then summed in parallel, one image per task, into
// a buffer per worker, and the noise added last, so each pixel is the same
// float32 sum, in the same order, as when one loop did both.
func (d *Dataset) materialize(hi int) {
	lo, s := d.ready, d.src
	if hi <= lo {
		return
	}
	cfg := s.cfg
	plane, sz := cfg.Size*cfg.Size, d.sz
	if s.rng == nil {
		s.protos = buildProtos(cfg)
		s.rng = rand.New(rand.NewSource(s.seed ^ cfg.Seed<<1))
	}
	protos, rng := s.protos, s.rng
	d.pixels = slices.Grow(d.pixels, (hi-lo)*sz)[:hi*sz]
	heads := make([]header, hi-lo)
	for k := range heads {
		h := &heads[k]
		h.class = rng.Intn(cfg.Classes)
		d.labels = append(d.labels, h.class)
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
		img := d.pixels[(lo+k)*sz : (lo+k+1)*sz]
		for j := range img {
			img[j] = float32(rng.NormFloat64() * cfg.Noise)
		}
	}

	acc := make([][]float32, cpu.Workers(0, len(heads)))
	cpu.Parallel(0, len(heads), func(w, k int) {
		if acc[w] == nil {
			acc[w] = make([]float32, sz)
		}
		a, h := acc[w], &heads[k]
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
		img := d.pixels[(lo+k)*sz : (lo+k+1)*sz]
		for j := range img {
			img[j] = a[j] + img[j]
		}
	})
	d.ready = hi
	if hi == d.n {
		d.src = nil
	}
}

// buildProtos draws cfg's class prototypes from cfg.Seed.
func buildProtos(cfg SynthConfig) [][]classProto {
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
	return protos
}
