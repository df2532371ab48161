package qinfer

import "radar/internal/cpu"

// The kernels of gemm_amd64.s and requant_amd64.s.

//go:noescape
func gemmAVX2Kernel(a, b *int8, out *int32, M, K, P4 int)

// requantConvAVX2 and requantAddAVX2 are levels.conv's and levels.add's
// loops over the first n elements, n a positive multiple of 4: n elements
// are read at each operand and written at dst. Their callers have checked
// the lengths.
//
//go:noescape
func requantConvAVX2(dst *int8, acc *int32, n int, a, b, accScale, floor, scale float64)

//go:noescape
func requantAddAVX2(dst, mq, sq *int8, n int, ms, ss, floor, scale float64)

func init() {
	if cpu.AVX2 {
		gemmLive = gemmAVX2
	}
}

// gemmAVX2 computes out[m·P4+p] = Σ_k a[m·K+k]·b[p·K+k] for the M weight
// rows of a — the protected image itself, unpacked — and the P4 rows of the
// patch matrix b, P4 a multiple of 4 as for gemmPacked. The operands are
// checked against their shape here, once, because the assembly is handed
// bare pointers and a weight row can end on the last mapped byte of a
// checkpoint: it loads nothing outside a[:M·K] and b[:P4·K].
func gemmAVX2(a, b []int8, out []int32, M, K, P4 int) {
	if M <= 0 || K <= 0 || P4 <= 0 {
		return
	}
	if P4&3 != 0 || len(a) < M*K || len(b) < P4*K || len(out) < M*P4 {
		panic("qinfer: gemmAVX2 operand shorter than its shape")
	}
	gemmAVX2Kernel(&a[0], &b[0], &out[0], M, K, P4)
}
