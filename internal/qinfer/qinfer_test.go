package qinfer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/nn"
	"radar/internal/quant"
	"radar/internal/tensor"
)

func compileTiny(t testing.TB) (*model.Bundle, *Engine) {
	t.Helper()
	return compileSpec(t, model.TinySpec())
}

func compileSpec(t testing.TB, spec model.Spec) (*model.Bundle, *Engine) {
	t.Helper()
	b := model.Load(spec)
	calib, _ := b.Attack.Batch(0, 64)
	e, err := Compile(b.Net, b.QModel, calib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return b, e
}

// forEachServedSpec runs f on tiny and on resnet20s, the ResNet-20
// substitute the paper's tables are reproduced on.
func forEachServedSpec(t *testing.T, f func(t *testing.T, b *model.Bundle, e *Engine)) {
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			b, e := compileSpec(t, spec)
			f(t, b, e)
		})
	}
}

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 1)
	scale := x.MaxAbs() / 127
	q := QuantizeActivations(x, scale)
	back := q.Dequantize()
	for i := range x.Data {
		diff := float64(x.Data[i] - back.Data[i])
		if diff < 0 {
			diff = -diff
		}
		if diff > float64(scale)/2+1e-6 {
			t.Fatalf("element %d: round-trip error %v exceeds scale/2", i, diff)
		}
	}
}

func TestClampQSaturates(t *testing.T) {
	if clampQ(1e9) != 127 || clampQ(-1e9) != -128 {
		t.Fatal("clamp saturation wrong")
	}
	if clampQ(0.4) != 0 || clampQ(0.6) != 1 || clampQ(-0.6) != -1 {
		t.Fatal("clamp rounding wrong")
	}
}

// TestClampQMatchesRound pins clampQ to math.Round(v) clamped to
// [−128, 127]: at every half-integer and integer from −131 to 131 ±64 ulps,
// at 10⁶ random v of magnitudes 2⁻⁶⁰..2¹⁰, at ±0, ±Inf and NaN.
func TestClampQMatchesRound(t *testing.T) {
	check := func(v float64) {
		want := int8(max(-128, min(127, math.Round(v))))
		if math.IsNaN(v) {
			want = 0
		}
		if got := clampQ(v); got != want {
			t.Fatalf("clampQ(%g (%#x)) = %d, math.Round gives %d", v, math.Float64bits(v), got, want)
		}
	}
	for k := -262; k <= 262; k++ {
		v := float64(k) / 2
		for range 64 {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for range 129 {
			check(v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for range 1000000 {
		check(math.Ldexp(rng.Float64()*2-1, rng.Intn(71)-60))
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		check(v)
	}
}

// TestLevelsMatchClampQ pins requantization to its definition,
// clampQ(relu(v)/scale), on both legs, with ReLU on and off: at every
// finite level boundary ±64 ulps and at 10⁵ random v, for every scale
// calibration gave tiny and for 1, 10⁻³⁰, 10³⁰, the smallest normal and a
// denormal float32. Each v is a conv row's a·(accScale·0) + v over five
// lanes, four through the AVX2 leg where it runs and one through Go.
func TestLevelsMatchClampQ(t *testing.T) {
	_, e := compileTiny(t)
	scales := []float32{1, 1e-30, 1e30, 0x1p-126, math.SmallestNonzeroFloat32 * 3}
	for _, c := range e.convs() {
		scales = append(scales, c.lv.scale)
	}
	for _, b := range e.blocks {
		scales = append(scales, b.lv.scale)
	}
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		dst, acc := make([]int8, 5), make([]int32, 5)
		for _, scale := range scales {
			for _, relu := range []bool{false, true} {
				lv, s := newLevels(scale, relu), float64(scale)
				want := func(v float64) int8 {
					if relu && v < 0 {
						v = 0
					}
					return clampQ(v / s)
				}
				check := func(v float64) {
					lv.conv(dst, acc, len(dst), len(dst), 1, v, 1)
					w := want(v)
					for i, got := range dst {
						if got != w {
							t.Fatalf("scale %g relu %v: v = %g (%#x) → %d in lane %d, clampQ gives %d", scale, relu, v, math.Float64bits(v), got, i, w)
						}
					}
				}
				for i := 1; i < 256; i++ {
					b := firstAtLeast(func(v float64) bool { return int(want(v)) >= i-128 }, (float64(i)-128.5)*s)
					if math.IsInf(b, 0) {
						continue
					}
					v := b
					for range 64 {
						v = math.Nextafter(v, math.Inf(-1))
					}
					for range 129 {
						check(v)
						v = math.Nextafter(v, math.Inf(1))
					}
				}
				for range 100000 {
					check(s * (rng.Float64()*300 - 150) * math.Pow(2, float64(rng.Intn(9)-4)))
				}
				check(math.Inf(1))
				check(math.Inf(-1))
			}
		}
	})
}

// firstAtLeast bisects for the least float64 at which ok (monotone, true at
// +Inf) holds, keyed ±bits(|v|), in ±64 keys of guess when they bracket it:
// the level boundaries TestLevelsMatchClampQ probes around.
func firstAtLeast(ok func(float64) bool, guess float64) float64 {
	val := func(k int64) float64 { return math.Copysign(math.Float64frombits(uint64(max(k, -k))), float64(k)) }
	hi := int64(math.Float64bits(math.Inf(1)))
	lo, g := -hi, int64(math.Copysign(1, guess))*int64(math.Float64bits(math.Abs(guess)))
	switch {
	case ok(val(lo)):
		return val(lo)
	case !ok(val(g-64)) && ok(val(g+64)):
		lo, hi = g-64, g+64
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; ok(val(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return val(hi)
}

// TestResidualAddMatchesClampQ pins a block's residual add to
// clampQ(relu(ms·mq + ss·sq)/scale) on both legs, with ReLU on and off,
// over every (mq, sq) pair plus a three-element tail that runs in Go: at
// the scales calibration gave tiny's blocks and at steps from 2⁻⁴⁰ to 2⁴⁰.
func TestResidualAddMatchesClampQ(t *testing.T) {
	_, e := compileTiny(t)
	type triple struct{ ms, ss, scale float32 }
	var cases []triple
	side := e.stem.lv.scale
	for _, b := range e.blocks {
		if b.down != nil {
			side = b.down.lv.scale
		}
		cases = append(cases, triple{b.conv2.lv.scale, side, b.lv.scale})
		side = b.lv.scale
	}
	rng := rand.New(rand.NewSource(6))
	for range 6 {
		cases = append(cases, triple{
			float32(math.Ldexp(rng.Float64(), rng.Intn(81)-40)),
			float32(math.Ldexp(rng.Float64(), rng.Intn(81)-40)),
			float32(math.Ldexp(rng.Float64(), rng.Intn(81)-40)),
		})
	}
	const n = 256*256 + 3
	mq, sq, dst := make([]int8, n), make([]int8, n), make([]int8, n)
	for i := range n {
		mq[i], sq[i] = int8(i), int8(i>>8)
	}
	eachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			for _, relu := range []bool{false, true} {
				newLevels(c.scale, relu).add(dst, mq, sq, float64(c.ms), float64(c.ss))
				for i := range dst {
					v := float64(c.ms)*float64(mq[i]) + float64(c.ss)*float64(sq[i])
					if relu && v < 0 {
						v = 0
					}
					if want := clampQ(v / float64(c.scale)); dst[i] != want {
						t.Fatalf("%+v relu %v: %g·%d + %g·%d → %d, clampQ gives %d", c, relu, c.ms, mq[i], c.ss, sq[i], dst[i], want)
					}
				}
			}
		}
	})
}

func TestEngineMatchesFloatAccuracy(t *testing.T) {
	forEachServedSpec(t, func(t *testing.T, b *model.Bundle, e *Engine) {
		x, labels := b.Test.Batch(0, 200)
		floatOut := b.Net.Forward(x, false)
		k := floatOut.Shape[1]
		floatAcc := 0
		for i := range labels {
			if floatOut.Argmax(i*k, k) == labels[i] {
				floatAcc++
			}
		}
		intAcc := nn.Accuracy(e.Forward(x), labels)
		if diff := float64(floatAcc)/float64(len(labels)) - intAcc; diff > 0.08 || diff < -0.08 {
			t.Fatalf("int8 engine accuracy %.3f differs from float %.3f by more than 8 points",
				intAcc, float64(floatAcc)/float64(len(labels)))
		}
	})
}

func TestEnginePredictionAgreement(t *testing.T) {
	forEachServedSpec(t, func(t *testing.T, b *model.Bundle, e *Engine) {
		x, _ := b.Test.Batch(0, 200)
		floatOut := b.Net.Forward(x, false)
		intOut := e.Forward(x)
		k := floatOut.Shape[1]
		agree := 0
		for i := 0; i < 200; i++ {
			if floatOut.Argmax(i*k, k) == intOut.Argmax(i*k, k) {
				agree++
			}
		}
		if agree < 170 {
			t.Fatalf("int8/float top-1 agreement %d/200 too low", agree)
		}
	})
}

// TestEngineConsumesDRAMImage: the engine aliases the quantized storage, so
// a bit flip in the DRAM image immediately changes int8 inference — no
// separate float copy exists to hide the corruption.
func TestEngineConsumesDRAMImage(t *testing.T) {
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 50)
	before := e.Forward(x).Clone()

	// Flip the MSB of a stem weight directly in the quantized image.
	addr := quant.BitAddress{LayerIndex: 0, WeightIndex: 1, Bit: quant.MSB}
	b.QModel.FlipBit(addr)

	after := e.Forward(x)
	changed := false
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("bit flip in DRAM image did not affect int8 inference")
	}
}

// TestRADARRecoveryRestoresEngine: protect → attack → recover acts on the
// same int8 image the engine reads, so recovery restores engine behaviour.
func TestRADARRecoveryRestoresEngine(t *testing.T) {
	forEachServedSpec(t, func(t *testing.T, b *model.Bundle, e *Engine) {
		x, labels := b.Test.Batch(0, 200)
		clean := nn.Accuracy(e.Forward(x), labels)

		prot := core.Protect(b.QModel, core.DefaultConfig(4))
		cfg := attack.DefaultConfig(5)
		cfg.NumFlips = 6
		attack.PBFA(b.QModel, b.Attack, cfg)
		attacked := nn.Accuracy(e.Forward(x), labels)

		prot.DetectAndRecover()
		recovered := nn.Accuracy(e.Forward(x), labels)

		if attacked >= clean-0.1 {
			t.Fatalf("attack barely moved the int8 engine: %.2f vs %.2f", attacked, clean)
		}
		if recovered < attacked {
			t.Fatalf("recovery hurt engine accuracy: clean %.2f attacked %.2f recovered %.2f",
				clean, attacked, recovered)
		}
	})
}

func TestCompileRejectsNonResNet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewSequential("mlp",
		nn.NewLinear("fc", 4, 4, rng),
	)
	qm := quant.Quantize(net)
	x := tensor.New(1, 4)
	if _, err := Compile(net, qm, x); err == nil {
		t.Fatal("expected error for non-ResNet model")
	}
}

func TestEngineDeterministic(t *testing.T) {
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 20)
	a := e.Forward(x)
	bOut := e.Forward(x)
	for i := range a.Data {
		if a.Data[i] != bOut.Data[i] {
			t.Fatal("int8 inference not deterministic")
		}
	}
}

// TestFetchHookCoversEveryLayer: the per-pass hook must fire once per
// stage, before that stage's weights are consumed, in execution order —
// and the stages between them read every quantized layer of the model,
// the classifier included.
func TestFetchHookCoversEveryLayer(t *testing.T) {
	b, e := compileTiny(t)
	var seen []int
	x, _ := b.Test.Batch(0, 2)
	e.ForwardWithHook(x, func(li int) { seen = append(seen, li) })
	want := e.QuantLayers()
	if len(seen) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook order %v, want %v", seen, want)
		}
	}
	covered := map[int]bool{}
	for _, li := range seen {
		covered[li] = true
	}
	for li, l := range b.QModel.Layers {
		if !covered[li] {
			t.Fatalf("layer %d (%s) never fetched", li, l.Name)
		}
	}
}

// recordingFetcher checks the fetch bracket's pairing: one layer held at a
// time and every hold released.
type recordingFetcher struct {
	t       *testing.T
	held    map[int]bool
	fetched []int
}

func (f *recordingFetcher) FetchLayer(li int) {
	if len(f.held) != 0 {
		f.t.Fatalf("layer %d fetched while %v still held", li, f.held)
	}
	f.fetched = append(f.fetched, li)
	f.held[li] = true
}

func (f *recordingFetcher) ReleaseLayer(li int) {
	if !f.held[li] {
		f.t.Fatalf("release of layer %d, which is not held", li)
	}
	delete(f.held, li)
}

// TestForwardFetchBracketsEveryStage: with a fetcher, every stage runs
// between its layer's FetchLayer and ReleaseLayer, the answer is the plain
// Forward's, and nothing stays held — also when a stage panics.
func TestForwardFetchBracketsEveryStage(t *testing.T) {
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 2)
	want := e.Forward(x)
	f := &recordingFetcher{t: t, held: map[int]bool{}}
	got, spent := e.ForwardFetch(x, f)
	if spent < 0 {
		t.Fatalf("negative fetch time %v", spent)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("logit %d: %v with a fetcher, %v without", i, got.Data[i], want.Data[i])
		}
	}
	if fmt.Sprint(f.fetched) != fmt.Sprint(e.QuantLayers()) {
		t.Fatalf("fetched %v, want %v", f.fetched, e.QuantLayers())
	}
	if len(f.held) != 0 {
		t.Fatalf("layers %v still held after the pass", f.held)
	}
	func() {
		defer func() { recover() }()
		e.ForwardFetch(tensor.New(1, 1, 8, 8), f) // wrong channel count: the stem panics
		t.Fatal("channel mismatch did not panic")
	}()
	if len(f.held) != 0 {
		t.Fatalf("layers %v still held after a panicking stage", f.held)
	}
}

// TestClassifierReadsProtectedImage: the classifier's logits equal the
// float network's Linear on the same pooled features bit for bit (it
// dequantizes the int8 rows to exactly the synchronized float weights),
// and — unlike a cloned float copy — a flip in the quantized fc layer
// reaches the very next answer.
func TestClassifierReadsProtectedImage(t *testing.T) {
	b, e := compileTiny(t)
	var lin *nn.Linear
	for _, l := range b.Net.Layers {
		if v, ok := l.(*nn.Linear); ok {
			lin = v
		}
	}
	rng := rand.New(rand.NewSource(5))
	feat := tensor.New(5, e.fc.in)
	feat.RandNormal(rng, 1)
	want := tensor.MatMulTransB(nil, feat, lin.Weight.Value)
	got := e.fc.forward(feat, new(engineScratch))
	for i := range want.Data {
		if w := want.Data[i] + lin.Bias.Value.Data[i%e.fc.out]; got.Data[i] != w {
			t.Fatalf("logit %d: int8-image classifier %v, float classifier %v", i, got.Data[i], w)
		}
	}

	x, _ := b.Test.Batch(0, 4)
	clean := e.Forward(x)
	fc := b.QModel.Layers[e.fc.qLayer]
	fc.Q[0] = quant.FlipBit(fc.Q[0], quant.MSB)
	defer func() { fc.Q[0] = quant.FlipBit(fc.Q[0], quant.MSB) }()
	hit := e.Forward(x)
	same := true
	for i := range clean.Data {
		same = same && clean.Data[i] == hit.Data[i]
	}
	if same {
		t.Fatal("an MSB flip in the quantized fc layer did not change the logits")
	}
}

// TestForwardReadsLiveWeights: the packed weight rows are rebuilt from the
// protected image on every stage call, never cached — an MSB written
// straight into a conv layer's Q between two passes on one engine reaches
// the second pass, whose logits are a freshly compiled engine's over the
// flipped image.
func TestForwardReadsLiveWeights(t *testing.T) {
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 4)
	first := e.Forward(x)
	conv := b.QModel.Layers[e.blocks[0].conv1.qLayer]
	conv.Q[3] = quant.FlipBit(conv.Q[3], quant.MSB)
	second := e.Forward(x)
	calib, _ := b.Attack.Batch(0, 64)
	fresh, err := Compile(b.Net, b.QModel, calib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := fresh.Forward(x)
	differs := false
	for i := range want.Data {
		if second.Data[i] != want.Data[i] {
			t.Fatalf("logit %d after the flip: %v, a fresh engine over the flipped image %v", i, second.Data[i], want.Data[i])
		}
		differs = differs || second.Data[i] != first.Data[i]
	}
	if !differs {
		t.Fatal("an MSB flip in a conv layer did not change the next pass's logits")
	}
}

// TestForwardAllocBudget: a tiny batch-1 pass allocates its activation
// tensors, 104 allocations in all, and nothing else per stage — so the pack
// buffer and the padded plane can only live in engineScratch.
func TestForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 1)
	if got := testing.AllocsPerRun(20, func() { e.Forward(x) }); got > 104 {
		t.Fatalf("Forward allocates %.0f times per pass, budget 104", got)
	}
}

// TestCompileRejectsLaneOverflow: a conv stage whose K = inC·k·k could
// wrap an int32 accumulator lane is refused at compile time.
func TestCompileRejectsLaneOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	build := func(inC int) (*nn.Sequential, *quant.Model) {
		net := nn.NewSequential("wide",
			nn.NewConv2D("stem.conv", inC, 1, 3, 1, 1, rng),
			nn.NewBatchNorm2D("stem.bn", 1),
			nn.NewReLU("stem.relu"),
			nn.NewGlobalAvgPool("gap"),
			nn.NewLinear("fc", 1, 2, rng),
		)
		return net, quant.Quantize(net)
	}
	net, qm := build(maxLaneK/9 + 1)
	if _, err := Compile(net, qm, tensor.New(1, maxLaneK/9+1, 3, 3)); err == nil {
		t.Fatalf("Compile accepted a stage with K = %d > %d", (maxLaneK/9+1)*9, maxLaneK)
	}
	net, qm = build(4)
	if _, err := Compile(net, qm, tensor.New(1, 4, 3, 3)); err != nil {
		t.Fatalf("Compile refused a stage with K = 36: %v", err)
	}
}

// TestForwardFetchAddsNoAllocs: the fetch bracket itself — interface
// calls, the deferred release, the pass clocks — allocates nothing on top
// of a plain Forward.
func TestForwardFetchAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, e := compileTiny(t)
	x, _ := b.Test.Batch(0, 1)
	plain := testing.AllocsPerRun(20, func() { e.Forward(x) })
	fetched := testing.AllocsPerRun(20, func() { e.ForwardFetch(x, nopFetcher{}) })
	if fetched != plain {
		t.Fatalf("ForwardFetch allocates %.0f times per pass, Forward %.0f", fetched, plain)
	}
}

type nopFetcher struct{}

func (nopFetcher) FetchLayer(int)   {}
func (nopFetcher) ReleaseLayer(int) {}

func TestEngineWithImageNetStem(t *testing.T) {
	// A small ImageNet-style stem (7×7 stride-2 conv + maxpool) must
	// compile and run.
	rng := rand.New(rand.NewSource(3))
	cfg := nn.ResNet18Config(4, 5, false)
	net := nn.BuildResNet(cfg, rng)
	// Feed a few batches through train mode so BN stats are sane.
	warm := tensor.New(4, 3, 32, 32)
	warm.RandNormal(rng, 1)
	net.Forward(warm, true)
	qm := quant.Quantize(net)
	calib := tensor.New(2, 3, 32, 32)
	calib.RandNormal(rng, 1)
	e, err := Compile(net, qm, calib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out := e.Forward(calib)
	if out.Shape[0] != 2 || out.Shape[1] != 5 {
		t.Fatalf("output shape %v", out.Shape)
	}
}

// BenchmarkCompile measures qinfer.Compile on resnet20s with 64 calibration
// inputs, as a served model is brought up: the float forward pass of
// calibrate is nearly all of it.
func BenchmarkCompile(b *testing.B) {
	bundle := model.Load(model.ResNet20sSpec())
	calib, _ := bundle.Attack.Batch(0, 64)
	for b.Loop() {
		if _, err := Compile(bundle.Net, bundle.QModel, calib); err != nil {
			b.Fatal(err)
		}
	}
}
