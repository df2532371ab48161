// AVX2 int8 GEMM micro-kernel; see gemm.go for the two kernels and the
// dispatch rule, gemm_amd64.go for the length-checked wrapper every call
// goes through, and internal/cpu for the probe that selects it.

#include "textflag.h"

// tailMask is 16 zero int16 lanes followed by 16 all-ones lanes: the 32
// bytes at byte offset 2r keep the last r of a step's 16 lanes.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0xffffffffffffffff
DATA tailMask<>+40(SB)/8, $0xffffffffffffffff
DATA tailMask<>+48(SB)/8, $0xffffffffffffffff
DATA tailMask<>+56(SB)/8, $0xffffffffffffffff
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// MADD sign-extends the 16 patch bytes at mem and multiply-adds them with
// the 16 int16 weights of row m (Y8) and row m+1 (Y9) into one
// accumulator of each row: eight int32 lanes of pair sums apiece.
#define MADD(mem, lo, hi) \
	VPMOVSXBW mem, Y10      \
	VPMADDWD  Y8, Y10, Y11  \
	VPADDD    Y11, lo, lo   \
	VPMADDWD  Y9, Y10, Y12  \
	VPADDD    Y12, hi, hi

// MADD4 is one 16-wide K step of the 2-row × 4-pixel tile.
#define MADD4 \
	MADD((R8)(AX*1), Y0, Y4)  \
	MADD((R9)(AX*1), Y1, Y5)  \
	MADD((R10)(AX*1), Y2, Y6) \
	MADD((R11)(AX*1), Y3, Y7)

// func gemmAVX2Kernel(a, b *int8, out *int32, M, K, P4 int)
//
// out[m·P4+p] = Σ_k a[m·K+k]·b[p·K+k] for m < M, p < P4, with M, K ≥ 1 and
// P4 a positive multiple of 4. Loads touch a[0 : M·K] and b[0 : P4·K] only:
// 16 bytes at a time while k+16 ≤ K, then — the K mod 16 tail — the last
// 16 bytes of the row again with the lanes already summed masked out of the
// weights. Rows shorter than 16 bytes admit no such load and run scalar.
TEXT ·gemmAVX2Kernel(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ out+16(FP), R13
	MOVQ M+24(FP), DX
	MOVQ K+32(FP), BX
	CMPQ BX, $16
	JLT  rowS

	MOVQ    BX, R12
	ANDQ    $~15, R12                // the whole 16-byte steps end here
	MOVQ    BX, AX
	ANDQ    $15, AX
	LEAQ    tailMask<>(SB), CX
	VMOVDQU (CX)(AX*2), Y13

pair:
	// Rows m (SI → R13) and m+1 (DI → R14). An odd last row is paired
	// with itself and stored twice, so there is one tile shape.
	MOVQ SI, DI
	MOVQ R13, R14
	CMPQ DX, $1
	JEQ  tiles
	ADDQ BX, DI
	MOVQ P4+40(FP), AX
	LEAQ (R13)(AX*4), R14

tiles:
	MOVQ b+8(FP), R8
	MOVQ P4+40(FP), CX
	SHRQ $2, CX

tile:
	LEAQ  (R8)(BX*1), R9
	LEAQ  (R8)(BX*2), R10
	LEAQ  (R9)(BX*2), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX

step:
	VPMOVSXBW (SI)(AX*1), Y8
	VPMOVSXBW (DI)(AX*1), Y9
	MADD4
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  step

	TESTQ $15, BX
	JZ    reduce
	LEAQ  -16(BX), AX
	VPMOVSXBW (SI)(AX*1), Y8
	VPMOVSXBW (DI)(AX*1), Y9
	VPAND Y13, Y8, Y8
	VPAND Y13, Y9, Y9
	MADD4

reduce:
	// Three horizontal adds fold a row's four accumulators into one
	// register holding pixel p's sum in lane p of both halves.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4
	VMOVDQU      X0, (R13)
	VMOVDQU      X4, (R14)
	ADDQ $16, R13
	ADDQ $16, R14
	LEAQ (R8)(BX*4), R8
	DECQ CX
	JNZ  tile

	// R14 ends on the first output of the next pair's row m.
	MOVQ R14, R13
	LEAQ (DI)(BX*1), SI
	SUBQ $2, DX
	JGT  pair
	VZEROUPPER
	RET

rowS:
	MOVQ b+8(FP), R8
	MOVQ P4+40(FP), CX

pixelS:
	XORL R9, R9
	XORQ AX, AX

macS:
	MOVBLSX (SI)(AX*1), R10
	MOVBLSX (R8)(AX*1), R11
	IMULL   R11, R10
	ADDL    R10, R9
	INCQ    AX
	CMPQ    AX, BX
	JLT     macS

	MOVL R9, (R13)
	ADDQ $4, R13
	ADDQ BX, R8
	DECQ CX
	JNZ  pixelS
	ADDQ BX, SI
	DECQ DX
	JNZ  rowS
	RET
