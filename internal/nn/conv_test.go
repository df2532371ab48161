package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"radar/internal/tensor"
)

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestConvBatchMatchesPerSample checks that a batch forward (one worker per
// sample or several samples per worker, reused im2col buffers in eval mode)
// gives each sample the bits of a forward over that sample alone, in both
// modes, and that Backward after the batched train-mode forward gives the
// bits of backwardRef, the per-sample loop, and the per-sample input
// gradients and the weight gradient they sum to in sample order: every
// sample kept its own im2col matrix. It runs at GOMAXPROCS 1 and 4.
func TestConvBatchMatchesPerSample(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, g := range []struct{ n, inC, outC, k, stride, pad, hw int }{
			{2, 3, 4, 3, 1, 1, 6},
			{5, 2, 5, 3, 2, 1, 7},
			{7, 4, 3, 1, 1, 0, 5},
			{32, 4, 8, 3, 1, 1, 8},
		} {
			for _, train := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs%d_n%d_k%d_s%d_train=%v", procs, g.n, g.k, g.stride, train), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(g.n)))
					conv := NewConv2D("c", g.inC, g.outC, g.k, g.stride, g.pad, rng)
					x := tensor.New(g.n, g.inC, g.hw, g.hw)
					x.RandNormal(rng, 1)
					out := conv.Forward(x, train)
					vol, ovol := x.Len()/g.n, out.Len()/g.n
					grad := tensor.New(out.Shape...)
					grad.RandNormal(rng, 1)
					var dx *tensor.Tensor
					if train {
						refDx, refDW := backwardRef(conv, grad)
						dx = conv.Backward(grad)
						sameBits(t, "input gradient vs backwardRef", dx.Data, refDx.Data)
						sameBits(t, "weight gradient vs backwardRef", conv.Weight.Grad.Data, refDW.Data)
					}
					batchGrad := conv.Weight.Grad.Clone()
					conv.Weight.ZeroGrad()
					for i := 0; i < g.n; i++ {
						xi := tensor.FromSlice(x.Data[i*vol:(i+1)*vol], 1, g.inC, g.hw, g.hw)
						oi := conv.Forward(xi, train)
						sameBits(t, fmt.Sprintf("sample %d output", i), out.Data[i*ovol:(i+1)*ovol], oi.Data)
						if !train {
							continue
						}
						gi := tensor.FromSlice(grad.Data[i*ovol:(i+1)*ovol], oi.Shape...)
						dxi := conv.Backward(gi)
						sameBits(t, fmt.Sprintf("sample %d input gradient", i), dx.Data[i*vol:(i+1)*vol], dxi.Data)
					}
					sameBits(t, "weight gradient", batchGrad.Data, conv.Weight.Grad.Data)
				})
			}
		}
	}
}

// convBenchShapes are resnet20s's three stage shapes: 8 channels at 32×32,
// 16 at 16×16 and 32 at 8×8.
var convBenchShapes = []struct{ c, hw int }{{8, 32}, {16, 16}, {32, 8}}

// BenchmarkConvForward runs one eval-mode 3×3 convolution at each of
// resnet20s's stage shapes on a batch of 32: the float path PBFA's trial
// flips and qinfer.Compile's calibration spend their time in.
func BenchmarkConvForward(b *testing.B) {
	for _, st := range convBenchShapes {
		b.Run(fmt.Sprintf("c%d_%dx%d", st.c, st.hw, st.hw), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D("c", st.c, st.c, 3, 1, 1, rng)
			x := tensor.New(32, st.c, st.hw, st.hw)
			x.RandNormal(rng, 1)
			for b.Loop() {
				conv.Forward(x, false)
			}
		})
	}
}

// BenchmarkConvBackward times one 3×3 convolution's backward pass at the
// same shapes and batch, each after an untimed train-mode forward: PBFA's
// gradient pass, run once per committed flip.
func BenchmarkConvBackward(b *testing.B) {
	for _, st := range convBenchShapes {
		b.Run(fmt.Sprintf("c%d_%dx%d", st.c, st.hw, st.hw), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D("c", st.c, st.c, 3, 1, 1, rng)
			x := tensor.New(32, st.c, st.hw, st.hw)
			x.RandNormal(rng, 1)
			grad := tensor.New(x.Shape...)
			grad.RandNormal(rng, 1)
			b.ResetTimer()
			for range b.N { // not b.Loop: its timer cannot be stopped in Go 1.24
				b.StopTimer()
				conv.Forward(x, true)
				conv.Weight.ZeroGrad()
				b.StartTimer()
				conv.Backward(grad)
			}
		})
	}
}
