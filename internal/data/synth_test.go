package data

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"radar/internal/tensor"
)

// generateRef is Generate as one serial loop, each image's draws, sines
// and noise in turn: the slow, obviously right version Generate is held to.
func generateRef(cfg SynthConfig, n int, streamSeed int64) *Dataset {
	type refProto struct {
		fx, fy, phase, amp float64
		channel            int
	}
	protoRng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([][]refProto, cfg.Classes)
	for c := range protos {
		comps := make([]refProto, cfg.Waves)
		for i := range comps {
			comps[i] = refProto{
				fx:      (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.Size),
				fy:      (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.Size),
				phase:   protoRng.Float64() * 2 * math.Pi,
				amp:     0.6 + protoRng.Float64()*0.8,
				channel: protoRng.Intn(cfg.Channels),
			}
		}
		protos[c] = comps
	}

	rng := rand.New(rand.NewSource(streamSeed ^ cfg.Seed<<1))
	x := tensor.New(n, cfg.Channels, cfg.Size, cfg.Size)
	labels := make([]int, n)
	sz := cfg.Channels * cfg.Size * cfg.Size
	for i := 0; i < n; i++ {
		class := rng.Intn(cfg.Classes)
		labels[i] = class
		img := x.Data[i*sz : (i+1)*sz]
		jitter := rng.Float64() * 2 * math.Pi
		ampJit := 0.8 + rng.Float64()*0.4
		addProto := func(class int, weight float64) {
			for _, p := range protos[class] {
				base := p.channel * cfg.Size * cfg.Size
				for yy := 0; yy < cfg.Size; yy++ {
					for xx := 0; xx < cfg.Size; xx++ {
						v := weight * p.amp * ampJit * math.Sin(p.fx*float64(xx)+p.fy*float64(yy)+p.phase+jitter*0.15)
						img[base+yy*cfg.Size+xx] += float32(v)
					}
				}
			}
		}
		alpha := 0.0
		if cfg.Confuse > 0 && cfg.Classes > 1 {
			alpha = rng.Float64() * cfg.Confuse
			if alpha > 0.5 {
				alpha = 0.5
			}
		}
		addProto(class, 1-alpha)
		if alpha > 0 {
			other := rng.Intn(cfg.Classes - 1)
			if other >= class {
				other++
			}
			addProto(other, alpha)
		}
		for j := range img {
			img[j] += float32(rng.NormFloat64() * cfg.Noise)
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: cfg.Classes}
}

// TestGenerateMatchesRef pins Generate to generateRef bit for bit, labels
// and every pixel, for both configurations and three streams, on one
// worker and on two. The hoisted sine arguments and amplitudes are exact
// only where Go fuses no multiply-add, as on amd64.
func TestGenerateMatchesRef(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit equality needs unfused multiply-adds (amd64)")
	}
	for _, procs := range []int{1, 2} {
		for name, cfg := range map[string]SynthConfig{"cifar": SynthCIFAR(), "imagenet": SynthImageNet()} {
			for _, seed := range []int64{1, 7, -3} {
				t.Run(fmt.Sprintf("procs=%d/%s/seed=%d", procs, name, seed), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got, want := Generate(cfg, 37, seed), generateRef(cfg, 37, seed)
					for i, l := range want.Labels {
						if got.Labels[i] != l {
							t.Fatalf("label %d is %d, reference %d", i, got.Labels[i], l)
						}
					}
					for i, v := range want.X.Data {
						if g := got.X.Data[i]; math.Float32bits(g) != math.Float32bits(v) {
							t.Fatalf("pixel %d is %v (%#08x), reference %v (%#08x)", i, g, math.Float32bits(g), v, math.Float32bits(v))
						}
					}
				})
			}
		}
	}
}

// BenchmarkGenerate times the 1 256 images model.Load draws for resnet20s
// (1 000 test images and 256 attack images), against the serial reference.
func BenchmarkGenerate(b *testing.B) {
	for _, v := range []struct {
		name string
		gen  func(SynthConfig, int, int64) *Dataset
	}{{"parallel", Generate}, {"ref", generateRef}} {
		b.Run(v.name, func(b *testing.B) {
			for b.Loop() {
				v.gen(SynthCIFAR(), 1256, 1)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SynthCIFAR()
	a := Generate(cfg, 20, 7)
	b := Generate(cfg, 20, 7)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels must be deterministic")
		}
	}
}

func TestGenerateStreamsDiffer(t *testing.T) {
	cfg := SynthCIFAR()
	a := Generate(cfg, 20, 7)
	b := Generate(cfg, 20, 8)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different streams produced identical data")
	}
}

func TestGenerateShapesAndLabels(t *testing.T) {
	cfg := SynthImageNet()
	d := Generate(cfg, 50, 1)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	want := []int{50, 3, 32, 32}
	for i, w := range want {
		if d.X.Shape[i] != w {
			t.Fatalf("shape = %v", d.X.Shape)
		}
	}
	for _, l := range d.Labels {
		if l < 0 || l >= cfg.Classes {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestAllClassesRepresented(t *testing.T) {
	cfg := SynthCIFAR()
	d := Generate(cfg, 500, 3)
	seen := make([]bool, cfg.Classes)
	for _, l := range d.Labels {
		seen[l] = true
	}
	for c, s := range seen {
		if !s {
			t.Fatalf("class %d missing from 500 samples", c)
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A nearest-class-mean classifier on raw pixels should beat chance by a
	// wide margin — sanity that the generator encodes class information.
	cfg := SynthCIFAR()
	train := Generate(cfg, 400, 11)
	test := Generate(cfg, 200, 12)
	sz := train.X.Len() / train.Len()
	means := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for c := range means {
		means[c] = make([]float64, sz)
	}
	for i := 0; i < train.Len(); i++ {
		c := train.Labels[i]
		counts[c]++
		for j := 0; j < sz; j++ {
			means[c][j] += float64(train.X.Data[i*sz+j])
		}
	}
	for c := range means {
		if counts[c] == 0 {
			continue
		}
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			var dist float64
			for j := 0; j < sz; j++ {
				d := float64(test.X.Data[i*sz+j]) - means[c][j]
				dist += d * d
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %v too low; classes not separable", acc)
	}
}

func TestBatch(t *testing.T) {
	d := Generate(SynthCIFAR(), 10, 1)
	x, labels := d.Batch(2, 5)
	if x.Shape[0] != 3 || len(labels) != 3 {
		t.Fatalf("batch shapes wrong: %v %d", x.Shape, len(labels))
	}
	sz := d.X.Len() / d.Len()
	if x.Data[0] != d.X.Data[2*sz] {
		t.Fatal("batch content wrong")
	}
}

func TestBatchPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(SynthCIFAR(), 4, 1).Batch(3, 3)
}

func TestSubset(t *testing.T) {
	d := Generate(SynthCIFAR(), 10, 1)
	s := d.Subset([]int{9, 0, 4})
	if s.Len() != 3 {
		t.Fatalf("subset len = %d", s.Len())
	}
	if s.Labels[0] != d.Labels[9] || s.Labels[2] != d.Labels[4] {
		t.Fatal("subset labels wrong")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d := Generate(SynthCIFAR(), 30, 1)
	// Record checksum of each (image, label) pair before shuffling.
	sz := d.X.Len() / d.Len()
	sig := func(i int) float64 {
		var s float64
		for j := 0; j < sz; j++ {
			s += float64(d.X.Data[i*sz+j]) * float64(j+1)
		}
		return s + 1e6*float64(d.Labels[i])
	}
	before := map[int64]int{}
	for i := 0; i < d.Len(); i++ {
		before[int64(sig(i)*1e3)]++
	}
	d.Shuffle(rand.New(rand.NewSource(5)))
	after := map[int64]int{}
	for i := 0; i < d.Len(); i++ {
		after[int64(sig(i)*1e3)]++
	}
	if len(before) != len(after) {
		t.Fatal("shuffle changed the multiset of samples")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("shuffle broke an (image,label) pair")
		}
	}
}
