// AVX2 implicit-GEMM conv kernel and the weight widening it reads; see
// gemm.go for the operand layout and the dispatch rule, gemm_amd64.go for
// the length-checked wrappers every call goes through, and internal/cpu
// for the probe that selects them.

#include "textflag.h"

// func widenAVX2Kernel(dst *int16, a *int8, M, K int)
//
// dst[m·Ke+k] = a[m·K+k] sign-extended, and dst[m·Ke+K] = 0 when K is odd,
// for m < M, k < K, with Ke = K rounded up to even and M, K ≥ 1. Loads
// touch a[0 : M·K] only: 16 bytes at a time while k+16 ≤ K, then — the
// K mod 16 tail — the last 16 bytes of the row again, stored over the same
// values. Rows shorter than 16 bytes admit no such load and run scalar.
TEXT ·widenAVX2Kernel(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ M+16(FP), DX
	MOVQ K+24(FP), BX
	LEAQ 1(BX), R8
	ANDQ $~1, R8
	SHLQ $1, R8                      // dst row stride in bytes
	LEAQ -16(BX), CX                 // the last 16-byte step starts here

row:
	XORQ AX, AX
	CMPQ BX, $16
	JLT  scalar

step:
	VPMOVSXBW (SI)(AX*1), Y0
	VMOVDQU   Y0, (DI)(AX*2)
	ADDQ      $16, AX
	CMPQ      AX, CX
	JLE       step
	CMPQ      AX, BX
	JEQ       pad
	VPMOVSXBW (SI)(CX*1), Y0
	VMOVDQU   Y0, (DI)(CX*2)
	JMP       pad

scalar:
	MOVBLSX (SI)(AX*1), R9
	MOVW    R9, (DI)(AX*2)
	INCQ    AX
	CMPQ    AX, BX
	JLT     scalar

pad:
	TESTQ $1, BX
	JZ    next
	MOVW  $0, (DI)(BX*2)

next:
	ADDQ BX, SI
	ADDQ R8, DI
	DECQ DX
	JNZ  row
	VZEROUPPER
	RET

// MAC multiply-adds one weight pair of a row — the int16 pair at mem,
// broadcast to all eight lanes — with the pixel pairs of the tile's
// first eight (Y10) and last eight (Y11) pixels, into the row's two
// accumulators: each int32 lane gains a_k·b_k[p] + a_k+1·b_k+1[p].
#define MAC(mem, lo, hi) \
	VPBROADCASTD mem, Y12       \
	VPMADDWD     Y12, Y10, Y13  \
	VPADDD       Y13, lo, lo    \
	VPMADDWD     Y12, Y11, Y14  \
	VPADDD       Y14, hi, hi

// MAC8 is MAC on the half tile: eight pixels in Y10, one accumulator.
#define MAC8(mem, acc) \
	VPBROADCASTD mem, Y12       \
	VPMADDWD     Y12, Y10, Y13  \
	VPADDD       Y13, acc, acc

// func implicitAVX2Kernel(w *int16, koff *int, b *int8, out *int32, M, Kp, P8 int)
//
// out[m·P8+p] = Σ_k w[m·2Kp+k]·b[koff[k]+p] for m < M, p < P8 and
// k < 2·Kp, with M a positive multiple of 4, P8 one of 8 and Kp ≥ 1.
// The tile is 4 rows × 16 pixels: per pair of k, rows k and k+1 of the
// implicit operand are loaded at p, interleaved byte by byte and
// sign-extended to int16 pairs, and each weight row's (w_k, w_k+1) pair
// is broadcast against them. Lane p of a row's accumulators holds pixel
// p's sum from the start, so nothing is reduced across lanes. An odd
// P8/8 ends each row block on a 4 × 8 half tile. Loads touch
// w[0 : M·2Kp] and b[koff[k] : koff[k]+P8] only.
TEXT ·implicitAVX2Kernel(SB), NOSPLIT, $0-56

// PAIRS sets up the K loop of a tile: koff (R8) from its start, rows m
// and m+2 of w (AX, and 2·DX past it) and rows m+1 and m+3 (BX) from the
// block's first pair, Kp pairs to go (CX).
#define PAIRS \
	MOVQ koff+8(FP), R8         \
	MOVQ SI, AX                 \
	LEAQ (SI)(DX*1), BX         \
	MOVQ Kp+40(FP), CX

// NEXT steps PAIRS's pointers to the next pair of k.
#define NEXT \
	ADDQ $16, R8 \
	ADDQ $4, AX  \
	ADDQ $4, BX  \
	DECQ CX

	MOVQ w+0(FP), SI
	MOVQ Kp+40(FP), DX
	SHLQ $2, DX                      // w row stride in bytes
	MOVQ out+24(FP), R12
	MOVQ P8+48(FP), R13
	SHLQ $2, R13                     // out row stride in bytes
	MOVQ M+32(FP), R14
	SHRQ $2, R14

block:
	// Rows m..m+3 of w start at SI; the pixel tiles walk b from its base.
	MOVQ b+16(FP), R9
	MOVQ P8+48(FP), DI
	SHRQ $4, DI
	JZ   half

tile:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	PAIRS

pair:
	MOVQ       (R8), R10
	MOVQ       8(R8), R11
	VMOVDQU    (R9)(R10*1), X8
	VMOVDQU    (R9)(R11*1), X9
	VPUNPCKLBW X9, X8, X10
	VPUNPCKHBW X9, X8, X11
	VPMOVSXBW  X10, Y10
	VPMOVSXBW  X11, Y11
	MAC((AX), Y0, Y1)
	MAC((BX), Y2, Y3)
	MAC((AX)(DX*2), Y4, Y5)
	MAC((BX)(DX*2), Y6, Y7)
	NEXT
	JNZ        pair

	LEAQ    (R12)(R13*1), R10
	VMOVDQU Y0, (R12)
	VMOVDQU Y1, 32(R12)
	VMOVDQU Y2, (R10)
	VMOVDQU Y3, 32(R10)
	VMOVDQU Y4, (R12)(R13*2)
	VMOVDQU Y5, 32(R12)(R13*2)
	VMOVDQU Y6, (R10)(R13*2)
	VMOVDQU Y7, 32(R10)(R13*2)
	ADDQ    $16, R9
	ADDQ    $64, R12
	DECQ    DI
	JNZ     tile

half:
	TESTQ $8, P8+48(FP)
	JZ    rows
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	VPXOR Y4, Y4, Y4
	VPXOR Y6, Y6, Y6
	PAIRS

halfpair:
	MOVQ       (R8), R10
	MOVQ       8(R8), R11
	VMOVQ      (R9)(R10*1), X8
	VMOVQ      (R9)(R11*1), X9
	VPUNPCKLBW X9, X8, X10
	VPMOVSXBW  X10, Y10
	MAC8((AX), Y0)
	MAC8((BX), Y2)
	MAC8((AX)(DX*2), Y4)
	MAC8((BX)(DX*2), Y6)
	NEXT
	JNZ        halfpair

	LEAQ    (R12)(R13*1), R10
	VMOVDQU Y0, (R12)
	VMOVDQU Y2, (R10)
	VMOVDQU Y4, (R12)(R13*2)
	VMOVDQU Y6, (R10)(R13*2)
	ADDQ    $32, R12

rows:
	// R12 ends one row past the block's first; skip the other three.
	LEAQ (R12)(R13*2), R12
	ADDQ R13, R12
	LEAQ (SI)(DX*4), SI
	DECQ R14
	JNZ  block
	VZEROUPPER
	RET
