package data

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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
	return &Dataset{Classes: cfg.Classes, n: n, sz: sz, shape: [3]int{cfg.Channels, cfg.Size, cfg.Size}, pixels: x.Data, labels: labels, ready: n}
}

// all reads every sample of d.
func all(d *Dataset) (*tensor.Tensor, []int) { return d.Batch(0, d.Len()) }

// sameSamples fails t unless x and labels are want's samples idx, labels
// and every pixel bit for bit.
func sameSamples(t *testing.T, what string, x *tensor.Tensor, labels []int, want *Dataset, idx []int) {
	t.Helper()
	sz := want.sz
	for k, i := range idx {
		if labels[k] != want.labels[i] {
			t.Fatalf("%s: label of image %d is %d, reference %d", what, i, labels[k], want.labels[i])
		}
		for j, v := range want.pixels[i*sz : (i+1)*sz] {
			if g := x.Data[k*sz+j]; math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("%s: image %d pixel %d is %v (%#08x), reference %v (%#08x)", what, i, j, g, math.Float32bits(g), v, math.Float32bits(v))
			}
		}
	}
}

// span lists lo, lo+1, ..., hi-1.
func span(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for k := range idx {
		idx[k] = lo + k
	}
	return idx
}

// TestGenerateMatchesRef pins Generate to generateRef bit for bit, labels
// and every pixel, for both configurations and three streams, on one
// worker and on two. Each dataset is read through uneven prefixes — one
// image, a range past a gap, scattered indices, then everything — so every
// read draws a different stretch of the stream. The hoisted sine arguments
// and amplitudes are exact only where Go fuses no multiply-add, as on amd64.
func TestGenerateMatchesRef(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit equality needs unfused multiply-adds (amd64)")
	}
	const n = 60
	scattered := []int{52, 3, 57, 50, 52}
	for _, procs := range []int{1, 2} {
		for name, cfg := range map[string]SynthConfig{"cifar": SynthCIFAR(), "imagenet": SynthImageNet()} {
			for _, seed := range []int64{1, 7, -3} {
				t.Run(fmt.Sprintf("procs=%d/%s/seed=%d", procs, name, seed), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got, want := Generate(cfg, n, seed), generateRef(cfg, n, seed)
					x, l := got.Batch(0, 1)
					sameSamples(t, "Batch(0,1)", x, l, want, span(0, 1))
					x, l = got.Batch(5, 50)
					sameSamples(t, "Batch(5,50)", x, l, want, span(5, 50))
					sub := got.Subset(scattered)
					x, l = all(sub)
					sameSamples(t, "Subset", x, l, want, scattered)
					x, l = all(got)
					sameSamples(t, "Batch(0,n)", x, l, want, span(0, n))
				})
			}
		}
	}
}

// TestReadDrawsOnlyItsPrefix: Len draws nothing, and a batch draws the
// images through its end and no further.
func TestReadDrawsOnlyItsPrefix(t *testing.T) {
	d := Generate(SynthCIFAR(), 1000, 909)
	if d.Len() != 1000 || d.ready != 0 || d.pixels != nil {
		t.Fatalf("Len drew images: ready=%d, %d pixels", d.ready, len(d.pixels))
	}
	d.Batch(0, 64)
	if d.ready != 64 || len(d.pixels) != 64*d.sz || len(d.labels) != 64 {
		t.Fatalf("Batch(0,64) left ready=%d, %d pixels, %d labels", d.ready, len(d.pixels), len(d.labels))
	}
	d.Batch(10, 20)
	if d.ready != 64 {
		t.Fatalf("a read inside the drawn prefix drew more: ready=%d", d.ready)
	}
	d.Shuffle(rand.New(rand.NewSource(1)))
	if d.ready != 1000 || d.src != nil {
		t.Fatalf("Shuffle left ready=%d", d.ready)
	}
}

// TestBatchConcurrent reads one dataset from several goroutines at once,
// each through its own ranges, so reads race to draw the stream; every
// read must still equal one serial read of the same stream. Run under
// -race, it pins that materialization happens under the dataset's lock.
func TestBatchConcurrent(t *testing.T) {
	const n = 96
	cfg := SynthCIFAR()
	d, want := Generate(cfg, n, 5), Generate(cfg, n, 5)
	all(want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hi := 8 + 5*g; hi <= n; hi += 13 + g {
				lo := hi / (2 + g)
				x, l := d.Batch(lo, hi)
				for k := range l {
					i := lo + k
					if l[k] != want.labels[i] || !slices.Equal(x.Data[k*d.sz:(k+1)*d.sz], want.pixels[i*d.sz:(i+1)*d.sz]) {
						t.Errorf("goroutine %d: Batch(%d,%d) differs from the reference at image %d", g, lo, hi, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGenerate times the 1 256 images model.Load's two datasets hold
// for resnet20s (1 000 test images and 256 attack images), all read, and
// the 64 attack images a serving replica reads, against the serial
// reference.
func BenchmarkGenerate(b *testing.B) {
	for _, v := range []struct {
		name string
		gen  func(SynthConfig, int, int64) *Dataset
		n    int
	}{{"all", Generate, 1256}, {"first64", Generate, 64}, {"ref", generateRef, 1256}} {
		b.Run(v.name, func(b *testing.B) {
			for b.Loop() {
				v.gen(SynthCIFAR(), 1256, 1).Batch(0, v.n)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SynthCIFAR()
	ax, al := all(Generate(cfg, 20, 7))
	bx, bl := all(Generate(cfg, 20, 7))
	if !slices.Equal(ax.Data, bx.Data) {
		t.Fatal("same seed must reproduce identical data")
	}
	if !slices.Equal(al, bl) {
		t.Fatal("labels must be deterministic")
	}
}

func TestGenerateStreamsDiffer(t *testing.T) {
	cfg := SynthCIFAR()
	a, _ := all(Generate(cfg, 20, 7))
	b, _ := all(Generate(cfg, 20, 8))
	if slices.Equal(a.Data, b.Data) {
		t.Fatal("different streams produced identical data")
	}
}

func TestGenerateShapesAndLabels(t *testing.T) {
	cfg := SynthImageNet()
	d := Generate(cfg, 50, 1)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	x, labels := all(d)
	if !slices.Equal(x.Shape, []int{50, 3, 32, 32}) {
		t.Fatalf("shape = %v", x.Shape)
	}
	for _, l := range labels {
		if l < 0 || l >= cfg.Classes {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestAllClassesRepresented(t *testing.T) {
	cfg := SynthCIFAR()
	_, labels := all(Generate(cfg, 500, 3))
	seen := make([]bool, cfg.Classes)
	for _, l := range labels {
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
	train, trainLabels := all(Generate(cfg, 400, 11))
	test, testLabels := all(Generate(cfg, 200, 12))
	sz := train.Len() / len(trainLabels)
	means := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for c := range means {
		means[c] = make([]float64, sz)
	}
	for i, c := range trainLabels {
		counts[c]++
		for j := 0; j < sz; j++ {
			means[c][j] += float64(train.Data[i*sz+j])
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
	for i, label := range testLabels {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			var dist float64
			for j := 0; j < sz; j++ {
				d := float64(test.Data[i*sz+j]) - means[c][j]
				dist += d * d
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testLabels))
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
	whole, wholeLabels := all(d)
	sz := whole.Len() / d.Len()
	if !slices.Equal(x.Data, whole.Data[2*sz:5*sz]) || !slices.Equal(labels, wholeLabels[2:5]) {
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

// TestSubsetPanicsPastTheEnd: the stream would go on drawing, but a
// subset may name only the dataset's own images.
func TestSubsetPanicsPastTheEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(SynthCIFAR(), 4, 1).Subset([]int{0, 4})
}

func TestSubset(t *testing.T) {
	d := Generate(SynthCIFAR(), 10, 1)
	s := d.Subset([]int{9, 0, 4})
	if s.Len() != 3 {
		t.Fatalf("subset len = %d", s.Len())
	}
	_, labels := all(d)
	_, sub := all(s)
	if sub[0] != labels[9] || sub[2] != labels[4] {
		t.Fatal("subset labels wrong")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d := Generate(SynthCIFAR(), 30, 1)
	// Record checksum of each (image, label) pair before shuffling.
	pairs := func() map[int64]int {
		x, labels := all(d)
		sz := x.Len() / d.Len()
		sigs := map[int64]int{}
		for i, l := range labels {
			var s float64
			for j := 0; j < sz; j++ {
				s += float64(x.Data[i*sz+j]) * float64(j+1)
			}
			sigs[int64((s+1e6*float64(l))*1e3)]++
		}
		return sigs
	}
	before := pairs()
	d.Shuffle(rand.New(rand.NewSource(5)))
	after := pairs()
	if len(before) != len(after) {
		t.Fatal("shuffle changed the multiset of samples")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("shuffle broke an (image,label) pair")
		}
	}
}
