package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"radar/internal/tensor"
)

// naiveConv2D is a direct quadruple-loop convolution used only as a
// reference to cross-validate the im2col + matmul implementation.
func naiveConv2D(x *tensor.Tensor, w *tensor.Tensor, inC, outC, k, stride, pad int) *tensor.Tensor {
	n, _, h, ww := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, k, stride, pad)
	outW := tensor.ConvOutSize(ww, k, stride, pad)
	out := tensor.New(n, outC, outH, outW)
	for img := 0; img < n; img++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc float64
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							iy := oy*stride - pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*stride - pad + kx
								if ix < 0 || ix >= ww {
									continue
								}
								wv := w.Data[oc*inC*k*k+ic*k*k+ky*k+kx]
								xv := x.Data[((img*x.Shape[1]+ic)*h+iy)*ww+ix]
								acc += float64(wv) * float64(xv)
							}
						}
					}
					out.Data[((img*outC+oc)*outH+oy)*outW+ox] = float32(acc)
				}
			}
		}
	}
	return out
}

// backwardRef is the loop Conv2D.Backward ran before it fanned out once
// per batch, one sample after another: MatMulTransB and MatMulTransA into
// fresh tensors, Col2Im into a fresh image copied into dx, and each
// sample's weight gradient added, in sample order, to a copy of
// Weight.Grad. It reads the im2col cache of a train-mode Forward and
// leaves it, and Weight.Grad, as they are; it returns the input gradient
// and the weight gradient Backward should produce.
func backwardRef(c *Conv2D, grad *tensor.Tensor) (dx, dW *tensor.Tensor) {
	n := c.inShape[0]
	ch, h, w := c.inShape[1], c.inShape[2], c.inShape[3]
	plane := c.outH * c.outW
	dx = tensor.New(c.inShape...)
	dW = c.Weight.Grad.Clone()
	for i := 0; i < n; i++ {
		g := tensor.FromSlice(grad.Data[i*c.OutC*plane:(i+1)*c.OutC*plane], c.OutC, plane)
		dWi := tensor.MatMulTransB(nil, g, c.cols[i])
		dcols := tensor.MatMulTransA(c.Weight.Value, g)
		dxi := tensor.New(ch, h, w)
		tensor.Col2Im(dxi.Data, dcols, ch, h, w, c.K, c.K, c.Stride, c.Pad)
		copy(dx.Data[i*ch*h*w:(i+1)*ch*h*w], dxi.Data)
		tensor.AddInPlace(dW, dWi)
	}
	return dx, dW
}

// TestConvMatchesNaiveReference cross-validates the production convolution
// against the direct definition over random geometries.
func TestConvMatchesNaiveReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(4)
		k := []int{1, 3, 5}[rng.Intn(3)]
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(k)
		h := k + rng.Intn(6)
		w := k + rng.Intn(6)
		n := 1 + rng.Intn(2)

		conv := NewConv2D("c", inC, outC, k, stride, pad, rng)
		x := tensor.New(n, inC, h, w)
		x.RandNormal(rng, 1)

		got := conv.Forward(x, false)
		want := naiveConv2D(x, conv.Weight.Value, inC, outC, k, stride, pad)
		if !tensor.SameShape(got, want) {
			return false
		}
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConvLinearity: conv(a·x) == a·conv(x) — a cheap algebraic invariant.
func TestConvLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D("c", 2, 3, 3, 1, 1, rng)
	x := tensor.New(1, 2, 5, 5)
	x.RandNormal(rng, 1)
	y1 := conv.Forward(x, false).Clone()
	x.Scale(2)
	y2 := conv.Forward(x, false)
	for i := range y1.Data {
		if math.Abs(float64(y2.Data[i]-2*y1.Data[i])) > 1e-4 {
			t.Fatalf("conv not linear at %d: %v vs %v", i, y2.Data[i], 2*y1.Data[i])
		}
	}
}

// TestConvTranslationEquivariance: shifting the input by the stride shifts
// the output by one pixel (interior pixels only, away from padding).
func TestConvTranslationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	conv := NewConv2D("c", 1, 1, 3, 1, 0, rng)
	x := tensor.New(1, 1, 8, 8)
	x.RandNormal(rng, 1)
	y := conv.Forward(x, false)

	// Shift input right by one column.
	xs := tensor.New(1, 1, 8, 8)
	for r := 0; r < 8; r++ {
		for c := 1; c < 8; c++ {
			xs.Set(x.At(0, 0, r, c-1), 0, 0, r, c)
		}
	}
	ys := conv.Forward(xs, false)
	// ys[r][c] should equal y[r][c-1] for interior columns.
	for r := 0; r < y.Shape[2]; r++ {
		for c := 1; c < y.Shape[3]; c++ {
			a := ys.At(0, 0, r, c)
			b := y.At(0, 0, r, c-1)
			if math.Abs(float64(a-b)) > 1e-4 {
				t.Fatalf("equivariance violated at (%d,%d): %v vs %v", r, c, a, b)
			}
		}
	}
}
