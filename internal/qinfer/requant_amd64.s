// AVX2 leg of requantization, four float64 lanes at a time; see
// levels.conv and levels.add in qinfer.go for the Go loops it matches bit
// for bit and gemm_amd64.go for the declarations.

#include "textflag.h"

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

DATA top<>+0(SB)/8, $127.0
GLOBL top<>(SB), RODATA|NOPTR, $8

DATA bottom<>+0(SB)/8, $-128.0
GLOBL bottom<>(SB), RODATA|NOPTR, $8

// lowBytes gathers the low byte of each of four int32 lanes into the
// first four bytes; the other twelve are zeroed.
DATA lowBytes<>+0(SB)/8, $0x808080800c080400
DATA lowBytes<>+8(SB)/8, $0x8080808080808080
GLOBL lowBytes<>(SB), RODATA|NOPTR, $16

// SETUP loads the constants QUANT reads beside the floor (Y9) and the
// step (Y10): 0.5, the sign bit, 1, 127, −128 and the byte gather.
#define SETUP \
	VBROADCASTSD half<>(SB), Y11       \
	VBROADCASTSD signBit<>(SB), Y12    \
	VBROADCASTSD one<>(SB), Y13        \
	VBROADCASTSD top<>(SB), Y14        \
	VBROADCASTSD bottom<>(SB), Y15     \
	VMOVDQU      lowBytes<>(SB), X8

// QUANT stores clampQ(max(v, floor)/scale) for the four values v in Y0
// as four bytes at (DI). max keeps v where either side is NaN, as Go's
// does; the divide is the Go loop's. Rounding half away from zero is
// math.Round's: t = trunc(x) is exact, so is x − t, and t moves one
// away from zero where |x − t| ≥ 0.5. The clamp keeps a NaN, which
// converts to the integer 0x80000000, whose low byte 0 is what Go's
// int8 conversion of a NaN gives.
#define QUANT \
	VMAXPD      Y0, Y9, Y0   \
	VDIVPD      Y10, Y0, Y0  \
	VROUNDPD    $3, Y0, Y1   \
	VSUBPD      Y1, Y0, Y2   \
	VANDNPD     Y2, Y12, Y2  \
	VCMPPD      $13, Y11, Y2, Y2 \
	VANDPD      Y12, Y0, Y3  \
	VORPD       Y13, Y3, Y3  \
	VANDPD      Y2, Y3, Y3   \
	VADDPD      Y3, Y1, Y1   \
	VMINPD      Y1, Y14, Y1  \
	VMAXPD      Y1, Y15, Y1  \
	VCVTTPD2DQY Y1, X1       \
	VPSHUFB     X8, X1, X1   \
	VMOVD       X1, (DI)

// func requantConvAVX2(dst *int8, acc *int32, n int, a, b, accScale, floor, scale float64)
//
// dst[i] = clampQ(max(a·(accScale·float64(acc[i])) + b, floor)/scale) for
// i < n, n a positive multiple of 4: each product rounded (VMULPD) before
// the add (VADDPD), as Go evaluates it. There is no FMA. Loads touch
// acc[0:n] and stores dst[0:n] only.
TEXT ·requantConvAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y7
	VBROADCASTSD b+32(FP), Y5
	VBROADCASTSD accScale+40(FP), Y6
	VBROADCASTSD floor+48(FP), Y9
	VBROADCASTSD scale+56(FP), Y10
	SETUP

conv:
	VCVTDQ2PD (SI), Y0
	VMULPD    Y6, Y0, Y0
	VMULPD    Y7, Y0, Y0
	VADDPD    Y5, Y0, Y0
	QUANT
	ADDQ      $16, SI
	ADDQ      $4, DI
	SUBQ      $4, CX
	JNZ       conv
	VZEROUPPER
	RET

// func requantAddAVX2(dst, mq, sq *int8, n int, ms, ss, floor, scale float64)
//
// dst[i] = clampQ(max(ms·float64(mq[i]) + ss·float64(sq[i]), floor)/scale)
// for i < n, n a positive multiple of 4, under the same rules. Loads touch
// mq[0:n] and sq[0:n] and stores dst[0:n] only.
TEXT ·requantAddAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         mq+8(FP), SI
	MOVQ         sq+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD ms+32(FP), Y6
	VBROADCASTSD ss+40(FP), Y7
	VBROADCASTSD floor+48(FP), Y9
	VBROADCASTSD scale+56(FP), Y10
	SETUP

add:
	VPMOVSXBD (SI), X0
	VCVTDQ2PD X0, Y0
	VMULPD    Y6, Y0, Y0
	VPMOVSXBD (BX), X4
	VCVTDQ2PD X4, Y4
	VMULPD    Y7, Y4, Y4
	VADDPD    Y4, Y0, Y0
	QUANT
	ADDQ      $4, SI
	ADDQ      $4, BX
	ADDQ      $4, DI
	SUBQ      $4, CX
	JNZ       add
	VZEROUPPER
	RET
