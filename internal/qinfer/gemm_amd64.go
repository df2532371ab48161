package qinfer

import "radar/internal/cpu"

// The kernels of gemm_amd64.s and requant_amd64.s.

//go:noescape
func widenAVX2Kernel(dst *int16, a *int8, M, K int)

//go:noescape
func implicitAVX2Kernel(w *int16, koff *int, b *int8, out *int32, M, Kp, P8 int)

// requantConvAVX2 is levels.conv's loop over rows rows of w ≥ 4 outputs,
// all of each row, read from rows of acc aw elements apart and written to
// dst back to back. requantAddAVX2 is levels.add's over the first n
// elements, n a positive multiple of 4. Their callers have checked the
// lengths.
//
//go:noescape
func requantConvAVX2(dst *int8, acc *int32, rows, w, aw int, a, b, accScale, floor, scale float64)

//go:noescape
func requantAddAVX2(dst, mq, sq *int8, n int, ms, ss, floor, scale float64)

func init() {
	if cpu.AVX2 {
		gemmLive = implicitAVX2
	}
}

// widenAVX2 sign-extends the M weight rows of a (M×K, row-major) — the
// protected image itself — into dst as int16 rows of Ke = K rounded up to
// even, the odd K's last pair closed by a zero. a is checked against its
// shape here, once, because the assembly is handed bare pointers and a
// weight row can end on the last mapped byte of a checkpoint: it loads
// nothing outside a[:M·K].
func widenAVX2(dst []int16, a []int8, M, K int) {
	if M <= 0 || K <= 0 {
		return
	}
	if len(a) < M*K || len(dst) < M*(K+K&1) {
		panic("qinfer: widenAVX2 operand shorter than its shape")
	}
	widenAVX2Kernel(&dst[0], &a[0], M, K)
}

// implicitAVX2 computes out[m·P8+p] = Σ_k w[m·Ke+k]·b[koff[k]+p] for the
// M4 widened weight rows of w, Ke = len(koff), and the implicit operand
// whose row k is b[koff[k]:][:P8] (see gemm.go). The offsets are checked
// against b here, so the assembly loads nothing outside w[:M4·Ke] and
// b[:max koff + P8].
func implicitAVX2(w []int16, koff []int, b []int8, out []int32, M4, P8 int) {
	ke := len(koff)
	if M4 <= 0 || ke == 0 || P8 <= 0 {
		return
	}
	if M4&3 != 0 || P8&7 != 0 || ke&1 != 0 || len(w) < M4*ke || len(out) < M4*P8 {
		panic("qinfer: implicitAVX2 operand shorter than its shape")
	}
	for _, o := range koff {
		if o < 0 || o > len(b)-P8 {
			panic("qinfer: implicitAVX2 offset outside its operand")
		}
	}
	implicitAVX2Kernel(&w[0], &koff[0], &b[0], &out[0], M4, ke/2, P8)
}
