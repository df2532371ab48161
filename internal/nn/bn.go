package nn

import (
	"math"

	"radar/internal/tensor"
)

// BatchNorm2D normalizes each channel of a (N, C, H, W) tensor over the
// batch and spatial dimensions, then applies a learnable affine transform.
// Running statistics are maintained for inference mode.
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate, PyTorch convention

	Gamma, Beta             *Param
	RunningMean, RunningVar []float64

	// FrozenStats, when true, makes train-mode Forward normalize with the
	// running statistics (treated as constants) instead of batch
	// statistics. Backward then differentiates the inference-mode function
	// — exactly what a bit-flip attacker needs, since the attacked network
	// runs in eval mode. Training code leaves this false.
	FrozenStats bool

	// Backward caches.
	xHat    *tensor.Tensor
	invStd  []float64
	inShape []int
}

// NewBatchNorm2D constructs a batch-norm layer with γ=1, β=0.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	b := tensor.New(c)
	rv := make([]float64, c)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam(name+".gamma", g, false),
		Beta:        NewParam(name+".beta", b, false),
		RunningMean: make([]float64, c),
		RunningVar:  rv,
	}
}

// Forward implements Layer. In eval mode it is Eval into a fresh tensor.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return bn.Eval(tensor.New(x.Shape...), x)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != bn.C {
		panic("nn: BatchNorm2D channel mismatch: " + bn.name)
	}
	plane := h * w
	out := tensor.New(x.Shape...)
	bn.inShape = append([]int(nil), x.Shape...)
	bn.xHat = tensor.New(x.Shape...)
	bn.invStd = make([]float64, c)
	cnt := float64(n * plane)
	for ch := 0; ch < c; ch++ {
		mean, variance := bn.RunningMean[ch], bn.RunningVar[ch]
		if !bn.FrozenStats {
			var s, ss float64
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for p := 0; p < plane; p++ {
					v := float64(x.Data[base+p])
					s += v
					ss += v * v
				}
			}
			mean = s / cnt
			variance = ss/cnt - mean*mean
			if variance < 0 {
				variance = 0
			}
			bn.RunningMean[ch] = (1-bn.Momentum)*bn.RunningMean[ch] + bn.Momentum*mean
			bn.RunningVar[ch] = (1-bn.Momentum)*bn.RunningVar[ch] + bn.Momentum*variance
		}
		bn.invStd[ch] = bn.normalize(out, bn.xHat, x, ch, mean, variance)
	}
	return out
}

// Eval writes the eval-mode output of x, normalized by the running
// statistics, into dst and returns dst. dst may be x itself: each element
// is read once, before it is written.
func (bn *BatchNorm2D) Eval(dst, x *tensor.Tensor) *tensor.Tensor {
	if x.Shape[1] != bn.C {
		panic("nn: BatchNorm2D channel mismatch: " + bn.name)
	}
	for ch := 0; ch < bn.C; ch++ {
		bn.normalize(dst, nil, x, ch, bn.RunningMean[ch], bn.RunningVar[ch])
	}
	return dst
}

// normalize writes γ·x̂ + β for channel ch of x into dst, where
// x̂ = (x − mean)/√(variance + ε), and x̂ itself into xHat unless it is
// nil. It returns 1/√(variance + ε). dst may be x.
func (bn *BatchNorm2D) normalize(dst, xHat, x *tensor.Tensor, ch int, mean, variance float64) float64 {
	n, c, plane := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	inv := 1.0 / math.Sqrt(variance+bn.Eps)
	g := float64(bn.Gamma.Value.Data[ch])
	b := float64(bn.Beta.Value.Data[ch])
	for i := 0; i < n; i++ {
		base := (i*c + ch) * plane
		src, out := x.Data[base:base+plane], dst.Data[base:base+plane]
		for p, v := range src {
			xh := (float64(v) - mean) * inv
			if xHat != nil {
				xHat.Data[base+p] = float32(xh)
			}
			out[p] = float32(g*xh + b)
		}
	}
	return inv
}

// Backward implements Layer using the standard batch-norm gradient:
// dx = γ·invStd/m · (m·dxhat − Σdxhat − x̂·Σ(dxhat·x̂)). With FrozenStats the
// statistics are constants, so the gradient reduces to dx = γ·invStd·dy.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if bn.xHat == nil {
		panic("nn: BatchNorm2D.Backward without train-mode Forward: " + bn.name)
	}
	n, c := bn.inShape[0], bn.inShape[1]
	plane := bn.inShape[2] * bn.inShape[3]
	m := float64(n * plane)
	dx := tensor.New(bn.inShape...)
	for ch := 0; ch < c; ch++ {
		g := float64(bn.Gamma.Value.Data[ch])
		inv := bn.invStd[ch]
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dy := float64(grad.Data[base+p])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xHat.Data[base+p])
			}
		}
		bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		bn.Beta.Grad.Data[ch] += float32(sumDy)
		if bn.FrozenStats {
			k := g * inv
			for i := 0; i < n; i++ {
				base := (i*c + ch) * plane
				for p := 0; p < plane; p++ {
					dx.Data[base+p] = float32(k * float64(grad.Data[base+p]))
				}
			}
			continue
		}
		k := g * inv / m
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dy := float64(grad.Data[base+p])
				xh := float64(bn.xHat.Data[base+p])
				dx.Data[base+p] = float32(k * (m*dy - sumDy - xh*sumDyXhat))
			}
		}
	}
	bn.xHat = nil
	return dx
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }
