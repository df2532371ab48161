package qinfer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"radar/internal/model"
	"radar/internal/tensor"
)

// randConv builds a qconv with randomized weights and folded-BN
// parameters (scales of both signs, so ReLU clips whole channels too) for
// the given geometry, and its output step.
func randConv(rng *rand.Rand, inC, outC, k, stride, pad int, relu bool) *qconv {
	c := &qconv{
		name:   fmt.Sprintf("rand%dx%dk%ds%dp%d", inC, outC, k, stride, pad),
		w:      make([]int8, outC*inC*k*k),
		wScale: 0.01 + rng.Float32()*0.1,
		inC:    inC, outC: outC,
		k: k, stride: stride, pad: pad,
		bn:   foldedBN{a: make([]float32, outC), b: make([]float32, outC)},
		relu: relu,
		lv:   newLevels(0.05+rng.Float32()*0.2, relu),
	}
	for i := range c.w {
		c.w[i] = int8(rng.Intn(256) - 128)
	}
	for i := 0; i < outC; i++ {
		c.bn.a[i] = (0.5 + rng.Float32()) * float32(1-2*rng.Intn(2))
		c.bn.b[i] = rng.Float32() - 0.5
	}
	return c
}

func randInput(rng *rand.Rand, n, ch, h, w int) *QTensor {
	x := NewQTensor(0.02+rng.Float32()*0.1, n, ch, h, w)
	for i := range x.Q {
		x.Q[i] = int8(rng.Intn(256) - 128)
	}
	return x
}

// computeRef is the historical 7-deep nested conv loop, kept verbatim as
// the bit-exactness reference for the GEMM path and the requantization
// legs: the differential property tests below pin compute against it on
// every checkpoint layer shape and on randomized geometries.
func (c *qconv) computeRef(x *QTensor) *QTensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.inC {
		panic("qinfer: channel mismatch in " + c.name)
	}
	outH := tensor.ConvOutSize(h, c.k, c.stride, c.pad)
	outW := tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	out := NewQTensor(c.lv.scale, n, c.outC, outH, outW)
	kk := c.k * c.k
	cols := c.inC * kk
	// Effective multiplier from int32 accumulator to real value.
	accScale := float64(c.wScale) * float64(x.Scale)
	for img := 0; img < n; img++ {
		inBase := img * ch * h * w
		outBase := img * c.outC * outH * outW
		for oc := 0; oc < c.outC; oc++ {
			wRow := c.w[oc*cols : (oc+1)*cols]
			a := float64(c.bn.a[oc])
			bb := float64(c.bn.b[oc])
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc int32
					for ic := 0; ic < c.inC; ic++ {
						icBase := inBase + ic*h*w
						wBase := ic * kk
						for ky := 0; ky < c.k; ky++ {
							iy := oy*c.stride - c.pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							rowBase := icBase + iy*w
							wRowBase := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ox*c.stride - c.pad + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += int32(wRow[wRowBase+kx]) * int32(x.Q[rowBase+ix])
							}
						}
					}
					v := a*(accScale*float64(acc)) + bb
					if c.relu && v < 0 {
						v = 0
					}
					out.Q[outBase+oc*outH*outW+oy*outW+ox] = clampQ(v / float64(c.lv.scale))
				}
			}
		}
	}
	return out
}

// mustMatch fails unless the GEMM and reference outputs are bit-identical.
func mustMatch(t *testing.T, label string, got, want *QTensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Q {
		if got.Q[i] != want.Q[i] {
			t.Fatalf("%s: output %d is %d, reference %d", label, i, got.Q[i], want.Q[i])
		}
	}
}

// kernelLeg is one setting of the dispatch variable compute reads.
type kernelLeg struct {
	name string
	live func(w []int16, koff []int, b []int8, out []int32, M4, P8 int)
}

// kernelLegs lists the GEMM kernels this host can run — the pure-Go packed
// kernel everywhere, the implicit avx2 kernel where CPUID offers one (see
// gemm.go) — for tests and benchmarks that switch gemmLive to cover both
// from one binary; the host's own choice is restored when tb ends.
func kernelLegs(tb testing.TB) []kernelLeg {
	live := gemmLive
	tb.Cleanup(func() { gemmLive = live })
	legs := []kernelLeg{{"generic", nil}}
	if live != nil {
		legs = append(legs, kernelLeg{"avx2", live})
	}
	return legs
}

// eachKernel runs f as one subtest per kernel.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, leg := range kernelLegs(t) {
		t.Run("kernel="+leg.name, func(t *testing.T) {
			gemmLive = leg.live
			f(t)
		})
	}
}

// TestEngineContractsOnGenericKernel re-runs, unmodified, the engine-level
// tests whose subject is how the weights are read — live on every pass,
// within the allocation budget — on the kernel that is not this host's
// default, so both paths hold them.
func TestEngineContractsOnGenericKernel(t *testing.T) {
	if len(kernelLegs(t)) == 1 {
		t.Skip("the generic kernel is this host's default: those tests already ran on it")
	}
	gemmLive = nil
	t.Run("ForwardReadsLiveWeights", TestForwardReadsLiveWeights)
	t.Run("ForwardAllocBudget", TestForwardAllocBudget)
	t.Run("ForwardFetchAddsNoAllocs", TestForwardFetchAddsNoAllocs)
}

// TestConvGEMMMatchesReferenceRandom pins the GEMM conv against
// the 7-loop reference on randomized geometries: 1×1 through 7×7 kernels,
// strides, pads (including pad ≥ kernel reach), odd spatial sizes that
// make stride-2 outputs ragged, and batches that exercise scratch reuse
// across images.
func TestConvGEMMMatchesReferenceRandom(t *testing.T) {
	eachKernel(t, testConvGEMMRandom)
}

func testConvGEMMRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc := new(engineScratch)
	for trial := 0; trial < 60; trial++ {
		k := []int{1, 3, 3, 5, 7}[rng.Intn(5)]
		c := randConv(rng,
			1+rng.Intn(9),    // inC
			1+rng.Intn(11),   // outC (exercises 4×4 edge blocks)
			k,                // kernel
			1+rng.Intn(2),    // stride
			rng.Intn(k+1),    // pad
			rng.Intn(2) == 0, // relu
		)
		h := c.k + rng.Intn(10)
		w := c.k + rng.Intn(10)
		x := randInput(rng, 1+rng.Intn(3), c.inC, h, w)
		got := c.compute(x, sc)
		want := c.computeRef(x)
		mustMatch(t, c.name+fmt.Sprintf("/h%dw%d", h, w), got, want)
	}
}

// TestConvGEMMMatchesReferenceCheckpoints pins the GEMM path against the
// reference on every conv stage of the trained checkpoint models — all
// layer shapes of resnet20s.gob and the tiny zoo model — at a few input
// resolutions, so every deployed (inC, outC, k, stride, pad) combination
// is covered bit-for-bit.
func TestConvGEMMMatchesReferenceCheckpoints(t *testing.T) {
	eachKernel(t, testConvGEMMCheckpoints)
}

func testConvGEMMCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sc := new(engineScratch)
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		b := model.Load(spec)
		calib, _ := b.Attack.Batch(0, 32)
		eng, err := Compile(b.Net, b.QModel, calib)
		if err != nil {
			t.Fatalf("%s: Compile: %v", spec.Name, err)
		}
		for ci, c := range eng.convs() {
			for _, hw := range []int{c.k, 8, 11} {
				x := randInput(rng, 2, c.inC, hw, hw)
				got := c.compute(x, sc)
				want := c.computeRef(x)
				mustMatch(t, fmt.Sprintf("%s conv %d (%s) hw=%d", spec.Name, ci, c.name, hw), got, want)
			}
		}
	}
}

// gemmInt8 runs the selected kernel on plain row-major operands a (M×K)
// and b (P×K) into out (M×P): for the avx2 kernel a is widened and b
// transposed into an implicit operand whose row k lies at koff[k] = k·P8;
// for the generic one a is packed in pairs. Both pad M and P to their
// kernel's tile.
func gemmInt8(a, b []int8, out []int32, M, K, P int) {
	m4 := (M + 3) &^ 3
	if gemmLive != nil {
		p8, ke := (P+7)&^7, K+K&1
		bt := make([]int8, K*p8)
		for p := 0; p < P; p++ {
			for k := 0; k < K; k++ {
				bt[k*p8+p] = b[p*K+k]
			}
		}
		koff := make([]int, ke)
		for k := range koff {
			koff[k] = min(k, K-1) * p8
		}
		wide := make([]int16, m4*ke)
		widenAVX2(wide, a, M, K)
		acc := make([]int32, m4*p8)
		gemmLive(wide, koff, bt, acc, m4, p8)
		for m := 0; m < M; m++ {
			copy(out[m*P:][:P], acc[m*p8:])
		}
		return
	}
	p4 := (P + 3) &^ 3
	bp := make([]int8, p4*K)
	copy(bp, b)
	acc := make([]int32, m4*p4)
	packed := make([][2]int64, m4/4*K)
	packPairs(a, packed, M, K)
	gemmPacked(packed, bp, acc, m4, K, p4)
	for m := 0; m < M; m++ {
		copy(out[m*P:][:P], acc[m*p4:])
	}
}

// TestGEMMKernelEdges drives each kernel directly across its tile edges
// (M, P ≡ 0..3 mod 4, K from 1), then every K from 1 to 48 — below one
// 16-byte step, on its multiples and every tail between — against odd and
// even M and P off the 4-pixel tile, then saturates both lanes of a packed
// pair in all four sign combinations: constant rows of −128 or 127
// against constant patch rows of −128 or 127, so every product is ±128·128
// or ±128·127 and a lane at its positive extreme sits beside one its
// neighbour borrows from, with K up to maxLaneK, the bound Compile enforces
// — where the all-(−128) dot product, 131071·2¹⁴, is the largest sum an
// int32 lane of either kernel is ever asked to hold.
func TestGEMMKernelEdges(t *testing.T) {
	eachKernel(t, testGEMMKernelEdges)
}

func testGEMMKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := func(m, k, p int) {
		a := make([]int8, m*k)
		b := make([]int8, p*k)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
		}
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
		mustGEMM(t, a, b, m, k, p)
	}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		for _, p := range []int{1, 2, 3, 4, 6, 8, 13} {
			for _, k := range []int{1, 2, 9, 27} {
				random(m, k, p)
			}
		}
	}
	for k := 1; k <= 48; k++ {
		for _, m := range []int{1, 2, 3, 5} {
			random(m, k, 1+(k+m)%7)
		}
	}
	fill := func(dst []int8, v int8) {
		for i := range dst {
			dst[i] = v
		}
	}
	for _, k := range []int{1, 27, 288, 4608, maxLaneK} {
		a := make([]int8, 8*k) // pairs (−,−), (−,+), (+,−), (+,+)
		for row, v := range []int8{-128, -128, -128, 127, 127, -128, 127, 127} {
			fill(a[row*k:][:k], v)
		}
		b := make([]int8, 2*k)
		fill(b[:k], -128)
		fill(b[k:], 127)
		mustGEMM(t, a, b, 8, k, 2)
	}
}

// mustGEMM fails unless gemmInt8 agrees with int64 reference sums, which
// must themselves fit the int32 lanes.
func mustGEMM(t *testing.T, a, b []int8, m, k, p int) {
	t.Helper()
	got := make([]int32, m*p)
	gemmInt8(a, b, got, m, k, p)
	for mi := 0; mi < m; mi++ {
		for pi := 0; pi < p; pi++ {
			var want int64
			for ki := 0; ki < k; ki++ {
				want += int64(a[mi*k+ki]) * int64(b[pi*k+ki])
			}
			if want != int64(int32(want)) {
				t.Fatalf("M=%d K=%d P=%d: reference sum %d overflows int32", m, k, p, want)
			}
			if int64(got[mi*p+pi]) != want {
				t.Fatalf("M=%d K=%d P=%d: out[%d,%d] = %d, want %d", m, k, p, mi, pi, got[mi*p+pi], want)
			}
		}
	}
}

// TestConvGEMMSmallInputs: on inputs smaller than the kernel's reach
// ConvOutSize rounds toward zero and still yields an output pixel whose
// last taps lie past the padded image; they must read as zeros, as the
// reference loop skips them — a serving request may carry any (H, W).
func TestConvGEMMSmallInputs(t *testing.T) {
	eachKernel(t, testConvGEMMSmallInputs)
}

func testConvGEMMSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sc := new(engineScratch)
	for _, g := range []struct{ k, stride, pad, h, w int }{
		{3, 2, 0, 2, 2}, {3, 2, 1, 0, 0}, {1, 2, 0, 0, 3}, {7, 2, 3, 0, 1}, {5, 2, 1, 2, 6},
	} {
		c := randConv(rng, 3, 5, g.k, g.stride, g.pad, false)
		x := randInput(rng, 2, 3, g.h, g.w)
		mustMatch(t, fmt.Sprintf("%s/h%dw%d", c.name, g.h, g.w), c.compute(x, sc), c.computeRef(x))
	}
}

// TestConcurrentForwardIdentical runs Forward from many goroutines on one
// engine — the serving deployment shape — and checks every result equals
// the sequential one, which exercises the scratch pool for aliasing bugs
// (and races, under -race in CI).
func TestConcurrentForwardIdentical(t *testing.T) {
	eachKernel(t, testConcurrentForwardIdentical)
}

func testConcurrentForwardIdentical(t *testing.T) {
	b, eng := compileTiny(t)
	x, _ := b.Test.Batch(0, 4)
	want := eng.Forward(x)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				out := eng.Forward(x)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						errs <- fmt.Errorf("concurrent Forward diverges at %d: %v vs %v", i, out.Data[i], want.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// FuzzConvGEMM is the differential fuzz target for the conv kernel:
// arbitrary bytes become weights and activations over a small randomized
// geometry, each GEMM kernel vs the reference loop — on amd64 with AVX2
// that is the implicit kernel over phase planes against the generic
// im2col one. k8 picks k = 1..7 and, by k8/7, inC = 2, 3 or 1, so
// K = inC·k² runs odd and even, under one 16-byte step and past it. hw8's
// low three bits and its next three pick h and a separate w, at least k
// each unless hw8's top bit drops that floor (an input smaller than the
// kernel); below hw8 = 8 the input is square. stride 2 with an odd extent
// leaves ragged phase planes. relu8's low bit picks ReLU and its other
// seven, read as a signed shift, scale the output step by 2⁻⁶⁴..2⁶³, so
// requantization is fuzzed across scales too. testdata/fuzz/FuzzConvGEMM
// holds seeds for K mod 16 tails, odd K, the 7×7/s2/p3 stem, a 1×1/s2
// downsample, an input smaller than the kernel and an output row of
// several 16-pixel tiles. CI runs the seed corpus under -race;
// `go test -fuzz=FuzzConvGEMM ./internal/qinfer` (or `make fuzz-smoke`)
// explores further.
func FuzzConvGEMM(f *testing.F) {
	legs := kernelLegs(f)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 130}, uint8(3), uint8(2), uint8(1), uint8(1), uint8(5))
	f.Add([]byte{255, 0, 128, 64}, uint8(1), uint8(1), uint8(2), uint8(0), uint8(4))
	f.Add(bytes.Repeat([]byte{0x80}, 64), uint8(2), uint8(0), uint8(1), uint8(1), uint8(3)) // the −128 extreme
	f.Fuzz(func(t *testing.T, raw []byte, k8, stride8, pad8, relu8, hw8 uint8) {
		k := 1 + int(k8)%7
		inC := 1 + (1+int(k8)/7)%3
		stride := 1 + int(stride8)%2
		pad := int(pad8) % (k + 1)
		floor := k
		if hw8 >= 128 {
			floor = 0
		}
		h := floor + int(hw8)%8
		w := floor + (int(hw8)+int(hw8)/8)%8
		if len(raw) == 0 || tensor.ConvOutSize(h, k, stride, pad) < 0 || tensor.ConvOutSize(w, k, stride, pad) < 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(len(raw))))
		c := randConv(rng, inC, 3, k, stride, pad, relu8%2 == 0)
		c.lv = newLevels(float32(math.Ldexp(float64(c.lv.scale), int(int8(relu8))>>1)), c.relu)
		// Overlay fuzz bytes onto the deterministic weights and input.
		for i := range c.w {
			c.w[i] = int8(raw[i%len(raw)] + byte(i))
		}
		x := randInput(rng, 1, inC, h, w)
		for i := range x.Q {
			x.Q[i] = int8(raw[(i*7)%len(raw)] ^ byte(i))
		}
		want := c.computeRef(x)
		for _, leg := range legs {
			gemmLive = leg.live
			mustMatch(t, fmt.Sprintf("%s h%dw%d %s", c.name, h, w, leg.name), c.compute(x, new(engineScratch)), want)
		}
	})
}

// FuzzRequant is the differential fuzz target for requantization: each
// leg's conv row and residual add against clampQ(relu(v)/scale) written
// out as the reference conv loop writes it. raw supplies the int32
// accumulators (four bytes each, full range) and the int8 operands of the
// add; a, b, accScale, ms and ss are arbitrary float64 bits and the step
// arbitrary float32 bits, all made finite, so v and v/scale still reach
// ±Inf and NaN (0·Inf, Inf − Inf, 0/0), which must land where Go's
// conversions put them. On the AVX2 leg a conv row of four or more runs
// there whole, its last step overlapping the one before where len mod 4
// ≠ 0, a shorter one in Go; an add runs its first len &^ 3 elements there
// and Go the rest.
func FuzzRequant(f *testing.F) {
	legs := kernelLegs(f)
	bits, bits32 := math.Float64bits, math.Float32bits
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 130, 0, 0, 0, 128, 255, 255, 255, 127}, bits(0.7), bits(-0.1), bits(1e-4), bits32(0.05), bits(0.03), bits(0.02), true)
	f.Add(bytes.Repeat([]byte{0x80}, 21), bits(-1.5), bits(0.25), bits(1), uint32(3), bits(-2), bits(0.5), false)                              // a denormal step
	f.Add([]byte{232, 3, 0, 0, 0, 0, 0, 0, 24, 252, 255, 255}, bits(0), bits(1e308), bits(1e308), bits32(1), bits(1e308), bits(-1e308), false) // 0·Inf
	f.Add([]byte{3, 0, 0, 0, 5, 0, 0, 0, 253, 255, 255, 255, 7}, bits(1), bits(0), bits(0.5), bits32(1), bits(0.5), bits(0.5), false)          // ties ±1.5, 2.5
	f.Add([]byte{9, 0, 0, 0, 1, 2, 3, 4}, bits(1), bits(1), bits(1), uint32(0), bits(0), bits(1), true)                                        // a zero step
	f.Fuzz(func(t *testing.T, raw []byte, a, b, accScale uint64, scale uint32, ms, ss uint64, relu bool) {
		finite := func(x uint64) float64 {
			if v := math.Float64frombits(x); !math.IsInf(v, 0) && !math.IsNaN(v) {
				return v
			}
			return math.Float64frombits(x &^ (1 << 62)) // an exponent below the all-ones one
		}
		step := math.Float32frombits(scale)
		if math.IsInf(float64(step), 0) || math.IsNaN(float64(step)) {
			step = math.Float32frombits(scale &^ (1 << 30))
		}
		fa, fb, fs, fms, fss := finite(a), finite(b), finite(accScale), finite(ms), finite(ss)
		level := func(v float64) int8 {
			if relu && v < 0 {
				v = 0
			}
			return clampQ(v / float64(step))
		}
		acc := make([]int32, len(raw)/4)
		for i := range acc {
			acc[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		mq, sq := make([]int8, len(raw)), make([]int8, len(raw))
		for i := range raw {
			mq[i], sq[i] = int8(raw[i]), int8(raw[len(raw)-1-i]^byte(i))
		}
		lv := newLevels(step, relu)
		for _, leg := range legs {
			gemmLive = leg.live
			conv := make([]int8, len(acc))
			lv.conv(conv, acc, len(conv), len(conv), fa, fb, fs)
			for i, got := range conv {
				if want := level(fa*(fs*float64(acc[i])) + fb); got != want {
					t.Fatalf("%s: conv element %d of %d, %g·(%g·%d) + %g at step %g relu %v → %d, want %d", leg.name, i, len(conv), fa, fs, acc[i], fb, step, relu, got, want)
				}
			}
			add := make([]int8, len(mq))
			lv.add(add, mq, sq, fms, fss)
			for i, got := range add {
				if want := level(fms*float64(mq[i]) + fss*float64(sq[i])); got != want {
					t.Fatalf("%s: add element %d of %d, %g·%d + %g·%d at step %g relu %v → %d, want %d", leg.name, i, len(add), fms, mq[i], fss, sq[i], step, relu, got, want)
				}
			}
		}
	})
}

// benchKernels runs f as one sub-benchmark per kernel, so old and new are
// measured from one binary.
func benchKernels(b *testing.B, f func(b *testing.B)) {
	for _, leg := range kernelLegs(b) {
		b.Run("kernel="+leg.name, func(b *testing.B) {
			gemmLive = leg.live
			f(b)
		})
	}
}

// BenchmarkConvGEMM / BenchmarkConvRef measure one mid-network ResNet
// conv stage (64→64 3×3 on a 16×16 plane) through the GEMM path, per
// kernel, and the reference loop — the per-stage speedup behind the
// serving gains.
func BenchmarkConvGEMM(b *testing.B) {
	sc := new(engineScratch)
	benchKernels(b, func(b *testing.B) {
		benchConv(b, func(c *qconv, x *QTensor) { c.compute(x, sc) })
	})
}

func BenchmarkConvRef(b *testing.B) {
	benchConv(b, func(c *qconv, x *QTensor) { c.computeRef(x) })
}

func benchConv(b *testing.B, run func(c *qconv, x *QTensor)) {
	rng := rand.New(rand.NewSource(31))
	c := randConv(rng, 64, 64, 3, 1, 1, true)
	x := randInput(rng, 1, 64, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(c, x)
	}
	reportMACs(b, len(c.w)*16*16)
}

// reportMACs reports the benchmark's rate in millions of multiply-
// accumulates per second, given the MACs of one iteration.
func reportMACs(b *testing.B, perOp int) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MMAC/s")
}

// BenchmarkEngineForward measures the whole int8 engine — every conv stage,
// requantization, residual adds, the classifier — on the two served
// checkpoints at the batch sizes the serving path runs, per kernel.
func BenchmarkEngineForward(b *testing.B) {
	for _, spec := range []model.Spec{model.ResNet20sSpec(), model.TinySpec()} {
		bundle := model.Load(spec)
		calib, _ := bundle.Attack.Batch(0, 32)
		eng, err := Compile(bundle.Net, bundle.QModel, calib)
		if err != nil {
			b.Fatalf("%s: Compile: %v", spec.Name, err)
		}
		for _, n := range []int{1, 8} {
			x, _ := bundle.Test.Batch(0, n)
			b.Run(fmt.Sprintf("%s/batch%d", spec.Name, n), func(b *testing.B) {
				benchKernels(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						eng.Forward(x)
					}
					reportMACs(b, n*eng.macs(x.Shape[2], x.Shape[3]))
				})
			})
		}
	}
}

// macs counts the multiply-accumulates of one h×w input's pass.
func (e *Engine) macs(h, w int) int {
	total := e.fc.in * e.fc.out
	stage := func(c *qconv, h, w int) (outH, outW int) {
		outH, outW = tensor.ConvOutSize(h, c.k, c.stride, c.pad), tensor.ConvOutSize(w, c.k, c.stride, c.pad)
		total += len(c.w) * outH * outW
		return outH, outW
	}
	h, w = stage(e.stem, h, w)
	if e.pool {
		h, w = h/2, w/2
	}
	for _, blk := range e.blocks {
		if blk.down != nil {
			stage(blk.down, h, w)
		}
		h, w = stage(blk.conv1, h, w)
		h, w = stage(blk.conv2, h, w)
	}
	return total
}
