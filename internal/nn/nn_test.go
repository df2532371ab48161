package nn

import (
	"math"
	"math/rand"
	"testing"

	"radar/internal/tensor"
)

// numericalGrad estimates ∂loss/∂w by central differences for the scalar
// parameter element (p, idx) of the given closure.
func numericalGrad(eval func() float64, w *float32, eps float32) float64 {
	orig := *w
	*w = orig + eps
	up := eval()
	*w = orig - eps
	dn := eval()
	*w = orig
	return (up - dn) / float64(2*eps)
}

// gradCheckLayer builds a small pipeline ending in cross-entropy and
// verifies analytic parameter and input gradients against numerical ones.
func gradCheckLayer(t *testing.T, layer Layer, inShape []int, flattenFor func(*tensor.Tensor) *tensor.Tensor, classes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(inShape...)
	x.RandNormal(rng, 1)
	n := inShape[0]
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}

	// Numeric evaluation runs in train mode so that batch-norm layers use
	// batch statistics, matching the analytic backward pass. Train-mode
	// forward is a pure function of inputs and weights (running-stat updates
	// do not feed back into the loss), so central differences are valid.
	eval := func() float64 {
		out := layer.Forward(x, true)
		if flattenFor != nil {
			out = flattenFor(out)
		}
		return CrossEntropyLoss(out, labels)
	}

	// Analytic gradients.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	out := layer.Forward(x, true)
	if flattenFor != nil {
		out = flattenFor(out)
	}
	_, g := SoftmaxCrossEntropy(out, labels)
	gin := layer.Backward(g)

	// Check a sample of parameter gradients.
	for _, p := range layer.Params() {
		idxs := sampleIdx(rng, p.Value.Len(), 6)
		for _, i := range idxs {
			num := numericalGrad(eval, &p.Value.Data[i], 1e-2)
			ana := float64(p.Grad.Data[i])
			if math.Abs(num-ana) > 1e-2+0.05*math.Abs(num) {
				t.Errorf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
	// Check a sample of input gradients.
	idxs := sampleIdx(rng, x.Len(), 6)
	for _, i := range idxs {
		num := numericalGrad(eval, &x.Data[i], 1e-2)
		ana := float64(gin.Data[i])
		if math.Abs(num-ana) > 1e-2+0.05*math.Abs(num) {
			t.Errorf("input grad[%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}
}

func sampleIdx(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 6, 4, rng)
	gradCheckLayer(t, l, []int{3, 6}, nil, 4)
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D("c", 2, 3, 3, 1, 1, rng)
	flat := NewFlatten("f")
	seq := NewSequential("convnet", conv, flat)
	gradCheckLayer(t, seq, []int{2, 2, 4, 4}, nil, 48)
}

func TestConvStridedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D("c", 2, 2, 3, 2, 1, rng)
	flat := NewFlatten("f")
	seq := NewSequential("convnet", conv, flat)
	gradCheckLayer(t, seq, []int{2, 2, 4, 4}, nil, 8)
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seq := NewSequential("net",
		NewLinear("fc", 5, 5, rng),
		NewReLU("r"),
	)
	gradCheckLayer(t, seq, []int{3, 5}, nil, 5)
}

// TestEvalFormsMatchForward pins the eval-mode forms calibration runs in
// place: ReLU.Eval is "v if v > 0, else +0" bit for bit on ±0,
// subnormals, ±Inf and NaNs of either sign, and both layers' Eval give
// Forward(x, false)'s bits whether dst is fresh or x itself.
func TestEvalFormsMatchForward(t *testing.T) {
	nan := float32(math.NaN())
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 3.4e38, -3.4e38, float32(math.Inf(1)), float32(math.Inf(-1)), nan, -nan, 0.5, -0.5}
	r := NewReLU("r")
	got := r.Eval(tensor.New(len(specials)), tensor.FromSlice(specials, len(specials)))
	for i, v := range specials {
		var want float32
		if v > 0 {
			want = v
		}
		if math.Float32bits(got.Data[i]) != math.Float32bits(want) {
			t.Fatalf("ReLU.Eval(%v) = %v (%#08x), want %v", v, got.Data[i], math.Float32bits(got.Data[i]), want)
		}
	}

	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2D("bn", 3)
	warm := tensor.New(4, 3, 5, 5)
	warm.RandNormal(rng, 2)
	bn.Forward(warm, true) // running statistics away from (0, 1)
	bn.Gamma.Value.RandNormal(rng, 1)
	bn.Beta.Value.RandNormal(rng, 1)
	x := tensor.New(2, 3, 5, 5)
	x.RandNormal(rng, 3)
	for _, layer := range []interface {
		Layer
		Eval(dst, x *tensor.Tensor) *tensor.Tensor
	}{bn, r} {
		want := layer.Forward(x, false)
		fresh := layer.Eval(tensor.New(x.Shape...), x)
		own := x.Clone()
		inPlace := layer.Eval(own, own)
		for i, w := range want.Data {
			if math.Float32bits(fresh.Data[i]) != math.Float32bits(w) || math.Float32bits(inPlace.Data[i]) != math.Float32bits(w) {
				t.Fatalf("%s at %d: Eval gives %v fresh and %v in place, Forward %v", layer.Name(), i, fresh.Data[i], inPlace.Data[i], w)
			}
		}
	}
}

func TestBasicBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blk := NewBasicBlock("b", 2, 4, 2, rng) // with downsample path
	seq := NewSequential("net", blk, NewFlatten("f"))
	gradCheckLayer(t, seq, []int{2, 2, 4, 4}, nil, 16)
}

func TestBasicBlockIdentityGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	blk := NewBasicBlock("b", 3, 3, 1, rng) // identity shortcut
	seq := NewSequential("net", blk, NewFlatten("f"))
	gradCheckLayer(t, seq, []int{2, 3, 4, 4}, nil, 48)
}

// TestBatchNormGradCheck exercises BN in train mode through a small
// pipeline. BN's train-mode forward is used by eval here too (statistics
// recomputed per call with momentum side effects frozen out by resetting).
func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	flat := NewFlatten("f")

	x := tensor.New(3, 2, 2, 2)
	x.RandNormal(rng, 1)
	labels := []int{1, 5, 2}

	eval := func() float64 {
		// Use train-mode statistics so numerical and analytic paths match,
		// but snapshot/restore running stats to keep eval side-effect free.
		rm := append([]float64(nil), bn.RunningMean...)
		rv := append([]float64(nil), bn.RunningVar...)
		out := flat.Forward(bn.Forward(x, true), false)
		copy(bn.RunningMean, rm)
		copy(bn.RunningVar, rv)
		return CrossEntropyLoss(out, labels)
	}

	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	out := flat.Forward(bn.Forward(x, true), true)
	_, g := SoftmaxCrossEntropy(out, labels)
	gin := bn.Backward(flat.Backward(g))

	for _, p := range []*Param{bn.Gamma, bn.Beta} {
		for i := 0; i < p.Value.Len(); i++ {
			num := numericalGrad(eval, &p.Value.Data[i], 1e-2)
			ana := float64(p.Grad.Data[i])
			if math.Abs(num-ana) > 1e-2+0.05*math.Abs(num) {
				t.Errorf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
	idx := sampleIdx(rand.New(rand.NewSource(8)), x.Len(), 8)
	for _, i := range idx {
		num := numericalGrad(eval, &x.Data[i], 1e-2)
		ana := float64(gin.Data[i])
		if math.Abs(num-ana) > 2e-2+0.08*math.Abs(num) {
			t.Errorf("input grad[%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}
}

func TestBatchNormRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	x := tensor.FromSlice([]float32{2, 2, 2, 2}, 1, 1, 2, 2)
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunningMean[0]-2) > 1e-3 {
		t.Fatalf("running mean = %v, want ~2", bn.RunningMean[0])
	}
	if math.Abs(bn.RunningVar[0]) > 1e-3 {
		t.Fatalf("running var = %v, want ~0", bn.RunningVar[0])
	}
	// Eval mode should normalize with running stats: (2-2)/sqrt(0+eps)*1+0=0.
	out := bn.Forward(x, false)
	if math.Abs(float64(out.Data[0])) > 1e-2 {
		t.Fatalf("eval output = %v, want ~0", out.Data[0])
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over K classes → loss = ln K, grad = (1/K - onehot)/N.
	logits := tensor.New(1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	if math.Abs(float64(grad.Data[2])-(0.25-1)) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
	if math.Abs(float64(grad.Data[0])-0.25) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestCrossEntropyLossMatchesGradVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(5, 7)
	logits.RandNormal(rng, 3)
	labels := []int{0, 6, 3, 2, 2}
	l1, _ := SoftmaxCrossEntropy(logits, labels)
	l2 := CrossEntropyLoss(logits, labels)
	if math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("loss mismatch: %v vs %v", l1, l2)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 0,
		9, 1, 2,
		0, 0, 7,
	}, 3, 3)
	if acc := Accuracy(logits, []int{1, 0, 2}); acc != 1 {
		t.Fatalf("acc = %v, want 1", acc)
	}
	if acc := Accuracy(logits, []int{0, 0, 2}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("acc = %v, want 2/3", acc)
	}
}

func TestSGDMomentumConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with SGD; must converge.
	w := tensor.FromSlice([]float32{5, -3}, 2)
	p := NewParam("w", w, false)
	opt := NewSGD(0.1, 0.9, 0)
	target := []float32{1, 2}
	for it := 0; it < 200; it++ {
		p.ZeroGrad()
		for i := range w.Data {
			p.Grad.Data[i] = 2 * (w.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(w.Data[i]-target[i])) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", w.Data)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := tensor.FromSlice([]float32{5, -3}, 2)
	p := NewParam("w", w, false)
	opt := NewAdam(0.1, 0)
	target := []float32{1, 2}
	for it := 0; it < 500; it++ {
		p.ZeroGrad()
		for i := range w.Data {
			p.Grad.Data[i] = 2 * (w.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(w.Data[i]-target[i])) > 1e-2 {
			t.Fatalf("Adam did not converge: %v", w.Data)
		}
	}
}

func TestWeightDecayOnlyAppliesToOptIn(t *testing.T) {
	wd := tensor.FromSlice([]float32{1}, 1)
	nd := tensor.FromSlice([]float32{1}, 1)
	pd := NewParam("w", wd, true)
	pn := NewParam("b", nd, false)
	opt := NewSGD(0.1, 0, 0.5)
	pd.ZeroGrad()
	pn.ZeroGrad()
	opt.Step([]*Param{pd, pn})
	if wd.Data[0] >= 1 {
		t.Fatal("weight decay not applied to decaying param")
	}
	if nd.Data[0] != 1 {
		t.Fatal("weight decay applied to non-decaying param")
	}
}

func TestBuildResNet20Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := ResNet20Config(8, 10)
	m := BuildResNet(cfg, rng)
	x := tensor.New(2, 3, 16, 16)
	x.RandNormal(rng, 1)
	out := m.Forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("output shape = %v", out.Shape)
	}
	// ResNet-20 has 9 basic blocks → at least 19 conv/linear weight params.
	convs := 0
	for _, p := range m.Params() {
		if p.WeightDecay {
			convs++
		}
	}
	if convs < 20 {
		t.Fatalf("expected ≥20 weight tensors, got %d", convs)
	}
}

func TestBuildResNet18Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := ResNet18Config(8, 20, true)
	m := BuildResNet(cfg, rng)
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 1)
	out := m.Forward(x, false)
	if out.Shape[1] != 20 {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestResNetTrainingStepReducesLoss(t *testing.T) {
	// One tiny model, one batch, several steps: loss must drop.
	rng := rand.New(rand.NewSource(12))
	cfg := ResNet20Config(4, 4)
	m := BuildResNet(cfg, rng)
	x := tensor.New(8, 3, 8, 8)
	x.RandNormal(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	first, last := 0.0, 0.0
	for it := 0; it < 12; it++ {
		m.ZeroGrad()
		out := m.Forward(x, true)
		loss, g := SoftmaxCrossEntropy(out, labels)
		m.Backward(g)
		opt.Step(m.Params())
		if it == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
}

func TestSequentialParamNamesUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := BuildResNet(ResNet20Config(4, 10), rng)
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestMaxPoolLayerRoundTrip(t *testing.T) {
	mp := NewMaxPool2("mp")
	x := tensor.New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	out := mp.Forward(x, true)
	if out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("pool shape = %v", out.Shape)
	}
	g := tensor.New(1, 1, 2, 2)
	g.Fill(1)
	back := mp.Backward(g)
	if back.Data[15] != 1 || back.Data[0] != 0 {
		t.Fatalf("pool backward = %v", back.Data)
	}
}

// TestStateMismatchPanics: loading and adopting validate the same way —
// a missing tensor or one of the wrong length panics, batch-norm
// statistics included, instead of being silently truncated.
func TestStateMismatchPanics(t *testing.T) {
	net := NewSequential("net", NewConv2D("conv", 1, 2, 3, 1, 1, rand.New(rand.NewSource(1))), NewBatchNorm2D("bn", 2))
	for _, c := range []struct {
		name  string
		spoil func(*State)
	}{
		{"short parameter", func(st *State) { st.Params["conv.weight"] = st.Params["conv.weight"][:1] }},
		{"missing parameter", func(st *State) { delete(st.Params, "conv.weight") }},
		{"short running mean", func(st *State) { st.RunningMean["bn"] = st.RunningMean["bn"][:1] }},
		{"short running var", func(st *State) { st.RunningVar["bn"] = st.RunningVar["bn"][:1] }},
		{"missing BN stats", func(st *State) { delete(st.RunningVar, "bn") }},
	} {
		for _, load := range []struct {
			name string
			fn   func(*State)
		}{{"LoadState", net.LoadState}, {"AdoptState", net.AdoptState}} {
			t.Run(load.name+"/"+c.name, func(t *testing.T) {
				st := net.CaptureState()
				c.spoil(st)
				defer func() {
					if recover() == nil {
						t.Errorf("%s with a %s did not panic", load.name, c.name)
					}
				}()
				load.fn(st)
			})
		}
	}
}
