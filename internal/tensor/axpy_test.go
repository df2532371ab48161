package tensor

import (
	"math"
	"math/rand"
	"testing"

	"radar/internal/cpu"
)

// axpyLeg is one setting of axpyAVX2, the switch axpy2x4 reads.
type axpyLeg struct {
	name string
	avx2 bool
}

// axpyLegs lists the legs this host can run — the pure-Go loop everywhere,
// the AVX2 one where internal/cpu's probe offers it — for tests and
// benchmarks that switch axpyAVX2 to cover both from one binary; the
// host's own choice is restored when tb ends.
func axpyLegs(tb testing.TB) []axpyLeg {
	live := axpyAVX2
	tb.Cleanup(func() { axpyAVX2 = live })
	legs := []axpyLeg{{"generic", false}}
	if cpu.AVX2 {
		legs = append(legs, axpyLeg{"avx2", true})
	}
	return legs
}

// specialFloat draws from finite normals, ±0, subnormals, ±Inf and values
// near the float32 limits, so products overflow, underflow to subnormals
// and meet 0·Inf.
func specialFloat(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return float32(math.Copysign(0, rng.NormFloat64()))
	case 1:
		return math.Float32frombits(uint32(1+rng.Intn(1<<23-1)) | uint32(rng.Intn(2))<<31)
	case 2:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 3:
		return float32(math.Ldexp(rng.NormFloat64(), 100+rng.Intn(28)))
	case 4:
		return float32(math.Ldexp(rng.NormFloat64(), -100-rng.Intn(40)))
	default:
		return float32(rng.NormFloat64())
	}
}

// TestAxpyLegsAgree runs axpy2x4 on both legs over the same operands and
// compares every element of c0 and c1 with math.Float32bits, for widths
// below, on and past the 8-column step. A result both legs compute as NaN
// is equal whatever its payload; a NaN operand need only give a NaN.
func TestAxpyLegsAgree(t *testing.T) {
	legs := axpyLegs(t)
	if len(legs) < 2 {
		t.Skip("CPUID reports no AVX2 leg for this host")
	}
	ns := []int{64, 256}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	rng := rand.New(rand.NewSource(39))
	for _, n := range ns {
		for trial := 0; trial < 20; trial++ {
			nanAt := -1
			if trial%5 == 4 {
				nanAt = rng.Intn(6*n + 8)
			}
			draw := func(k int) float32 {
				if k == nanAt {
					return float32(math.NaN())
				}
				return specialFloat(rng)
			}
			c := make([]float32, 2*n)
			b := make([]float32, 4*n)
			var s [8]float32
			for i := range c {
				c[i] = draw(i)
			}
			for i := range b {
				b[i] = draw(2*n + i)
			}
			for i := range s {
				s[i] = draw(6*n + i)
			}
			var got [2][]float32
			for l, leg := range legs {
				axpyAVX2 = leg.avx2
				out := append([]float32(nil), c...)
				axpy2x4(out[:n], out[n:], b, s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
				got[l] = out
			}
			for i, want := range got[0] {
				g := got[1][i]
				if math.IsNaN(float64(want)) && math.IsNaN(float64(g)) {
					continue
				}
				if math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("n=%d trial %d: element %d is %v (%#08x) on avx2, %v (%#08x) on generic",
						n, trial, i, g, math.Float32bits(g), want, math.Float32bits(want))
				}
			}
			if nanAt >= 0 {
				hit := false
				for _, v := range got[1] {
					hit = hit || math.IsNaN(float64(v))
				}
				if !hit {
					t.Fatalf("n=%d trial %d: a NaN operand gave no NaN", n, trial)
				}
			}
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(128, 128)
	y := New(128, 128)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	for _, leg := range axpyLegs(b) {
		b.Run("kernel="+leg.name, func(b *testing.B) {
			axpyAVX2 = leg.avx2
			for b.Loop() {
				MatMul(x, y)
			}
		})
	}
}
