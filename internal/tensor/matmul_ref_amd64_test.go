package tensor

// The blocked GEMM's bit-for-bit equality with the plain loop rests on Go
// never fusing a multiply-add. That holds on amd64; on arm64, ppc64 and
// s390x the compiler may fuse x*y+z, and may do so differently in the two
// loops, so these tests build on amd64 only.

import (
	"math"
	"math/rand"
	"testing"
)

// matMulRef is the plain ikj loop MatMul ran before it was blocked: C = A·B
// for A (m×k) and B (k×n), one product at a time in p order, zero A
// elements skipped.
func matMulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return out
}

// matMulTransARef is the plain loop MatMulTransA ran before it was
// blocked: C = Aᵀ·B for A (k×m) and B (k×n), row i of C gathering column i
// of A.
func matMulTransARef(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		crow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return out
}

// fuzzMatrix fills a rows×cols matrix with finite values spread over
// 2^±20 of both signs. About zeroPct/256 of the elements are ±0, so the
// plain loop's zero skip is exercised.
func fuzzMatrix(rng *rand.Rand, rows, cols int, zeroPct uint8) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		switch {
		case rng.Intn(256) < int(zeroPct):
			t.Data[i] = float32(math.Copysign(0, rng.NormFloat64()))
		default:
			t.Data[i] = float32(math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20))
		}
	}
	return t
}

func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), reference %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// FuzzMatMul checks MatMul, MatMulInto (over a dirty destination) and
// MatMulTransA against the plain loops bit for bit, on each leg of
// axpy2x4. Dimensions are 1 + (byte mod 40), so odd m, k mod 4 ≠ 0, n = 1
// and n past the AVX2 leg's 8-column step with n mod 8 ≠ 0 all occur.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(7), uint8(13), uint8(9), int64(1), uint8(0))   // odd m, k mod 4 = 1
	f.Add(uint8(15), uint8(2), uint8(0), int64(2), uint8(0))   // k mod 4 = 3, n = 1
	f.Add(uint8(0), uint8(5), uint8(0), int64(3), uint8(0))    // m = 1, k mod 4 = 2, n = 1
	f.Add(uint8(16), uint8(71), uint8(63), int64(4), uint8(0)) // k = 32, the blocked path alone
	f.Add(uint8(8), uint8(35), uint8(10), int64(5), uint8(200))
	f.Add(uint8(3), uint8(11), uint8(1), int64(6), uint8(255)) // all-zero A
	f.Add(uint8(5), uint8(9), uint8(8), int64(7), uint8(0))    // n = 9: one 8-column step and a 1-column tail
	f.Add(uint8(6), uint8(17), uint8(22), int64(8), uint8(30)) // n = 23: two steps and a 7-column tail
	f.Add(uint8(1), uint8(31), uint8(36), int64(9), uint8(0))  // n = 37, k = 32
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, seed int64, zeroPct uint8) {
		m, k, n := 1+int(mb)%40, 1+int(kb)%40, 1+int(nb)%40
		rng := rand.New(rand.NewSource(seed))
		a := fuzzMatrix(rng, m, k, zeroPct)
		b := fuzzMatrix(rng, k, n, zeroPct/4)
		want := matMulRef(a, b)
		at := Transpose(a)
		wantT := matMulTransARef(at, b)
		for _, leg := range axpyLegs(t) {
			axpyAVX2 = leg.avx2
			sameBits(t, "MatMul "+leg.name, MatMul(a, b), want)
			dst := New(m, n)
			for i := range dst.Data {
				dst.Data[i] = float32(math.NaN())
			}
			MatMulInto(dst, a, b)
			sameBits(t, "MatMulInto "+leg.name, dst, want)
			sameBits(t, "MatMulTransA "+leg.name, MatMulTransA(at, b), wantT)
		}
	})
}
