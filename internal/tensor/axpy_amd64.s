// AVX2 leg of the float GEMM's inner loop; see axpy2x4 in ops.go for the
// Go loop it matches bit for bit and axpy_amd64.go for the declaration.

#include "textflag.h"

// STEP multiplies the 8 columns of B row mem by the row's broadcast
// scalars x (row 0 of C) and y (row 1), rounding each product, and adds
// the products to the accumulators Y0 and Y1.
#define STEP(mem, x, y) \
	VMOVUPS mem, Y2      \
	VMULPS  Y2, x, Y3    \
	VMULPS  Y2, y, Y4    \
	VADDPS  Y3, Y0, Y0   \
	VADDPS  Y4, Y1, Y1

// func axpy2x4AVX2(c0, c1, b0, b1, b2, b3 *float32, n8 int, x0, x1, x2, x3, y0, y1, y2, y3 float32)
//
// c0[j] = c0[j] + x0·b0[j] + x1·b1[j] + x2·b2[j] + x3·b3[j], and c1 the
// same with y, for j < n8, n8 a positive multiple of 8: 8 columns per
// step, each product rounded (VMULPS) before it is added (VADDPS), left to
// right as Go evaluates the sum. There is no FMA, whose single rounding
// would change the bits. Loads touch the first n8 elements of each
// operand only.
TEXT ·axpy2x4AVX2(SB), NOSPLIT, $0-88
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ n8+48(FP), CX
	SHLQ $2, CX

	VBROADCASTSS x0+56(FP), Y8
	VBROADCASTSS x1+60(FP), Y9
	VBROADCASTSS x2+64(FP), Y10
	VBROADCASTSS x3+68(FP), Y11
	VBROADCASTSS y0+72(FP), Y12
	VBROADCASTSS y1+76(FP), Y13
	VBROADCASTSS y2+80(FP), Y14
	VBROADCASTSS y3+84(FP), Y15
	XORQ         BX, BX

step:
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS (SI)(BX*1), Y1
	STEP((R8)(BX*1), Y8, Y12)
	STEP((R9)(BX*1), Y9, Y13)
	STEP((R10)(BX*1), Y10, Y14)
	STEP((R11)(BX*1), Y11, Y15)
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, (SI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     step
	VZEROUPPER
	RET
