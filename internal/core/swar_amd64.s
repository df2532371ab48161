// AVX2 leg of the interleaved checksum kernel — its plain-run inner loop
// and its settle loop; see the swar.go header for the lane domain and
// swar_amd64.go for the declarations.

#include "textflag.h"

// Lane constants, broadcast from memory: a legacy-SSE MOVQ into an X
// register while the YMM upper halves are dirty made the leg ≈ 3× slower
// than the Go loop on small layers.
DATA lowBytes<>+0(SB)/8, $0x00ff00ff00ff00ff
GLOBL lowBytes<>(SB), RODATA|NOPTR, $8
DATA lane15<>+0(SB)/8, $0x7fff7fff7fff7fff
GLOBL lane15<>(SB), RODATA|NOPTR, $8
DATA laneThrees<>+0(SB)/8, $0x0003000300030003
GLOBL laneThrees<>(SB), RODATA|NOPTR, $8

// ROW masks the 32 bytes of a row at mem with the row's broadcast mask and
// splits them into even (e) and odd (o) byte lanes, widened to 16 bits.
#define ROW(mem, mask, e, o) \
	VPXOR  mem, mask, e \
	VPSRLW $8, e, o     \
	VPAND  Y11, e, e

// func addWords4AVX2(accE, accO *uint64, s0, s1, s2, s3 unsafe.Pointer, m *[blockRows]uint64, words int)
//
// Four accumulator words (16 lanes) per step: each row's 32 bytes are
// masked and split, the four rows summed in registers (≤ 1020 per lane) and
// added to accE and accO once. No lane carries into its neighbour, so
// VPADDW is bit-for-bit the uint64 add of the Go loop.
TEXT ·addWords4AVX2(SB), NOSPLIT, $0-64
	MOVQ accE+0(FP), DI
	MOVQ accO+8(FP), SI
	MOVQ s0+16(FP), R8
	MOVQ s1+24(FP), R9
	MOVQ s2+32(FP), R10
	MOVQ s3+40(FP), R11
	MOVQ m+48(FP), AX
	MOVQ words+56(FP), CX
	SHLQ $3, CX

	VPBROADCASTQ 0(AX), Y12
	VPBROADCASTQ 8(AX), Y13
	VPBROADCASTQ 16(AX), Y14
	VPBROADCASTQ 24(AX), Y15
	VPBROADCASTQ lowBytes<>(SB), Y11
	XORQ         BX, BX

step:
	ROW((R8)(BX*1), Y12, Y0, Y1)
	ROW((R9)(BX*1), Y13, Y2, Y3)
	ROW((R10)(BX*1), Y14, Y4, Y5)
	ROW((R11)(BX*1), Y15, Y6, Y7)
	VPADDW  Y2, Y0, Y0
	VPADDW  Y3, Y1, Y1
	VPADDW  Y6, Y4, Y4
	VPADDW  Y7, Y5, Y5
	VPADDW  Y4, Y0, Y0
	VPADDW  Y5, Y1, Y1
	VPADDW  (DI)(BX*1), Y0, Y0
	VPADDW  (SI)(BX*1), Y1, Y1
	VMOVDQU Y0, (DI)(BX*1)
	VMOVDQU Y1, (SI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     step
	VZEROUPPER
	RET

// SETTLE turns the 16 lanes at mem into signatures in the low byte of each
// lane of x: bit 15 cleared, the settle constant added, then (lane>>7)&3
// with the S_C bit (lane>>4)&sigC beside it.
#define SETTLE(mem, x) \
	VPAND  mem, Y14, x  \
	VPADDW Y12, x, x    \
	VPSRLW $7, x, Y3    \
	VPSRLW $4, x, x     \
	VPAND  Y15, Y3, Y3  \
	VPAND  Y13, x, x    \
	VPOR   Y3, x, x

// func settleAVX2(accE, accO *uint64, sig *uint8, words int, settle, sigC uint64)
//
// Four accumulator words of each parity per step, 32 signature bytes per
// store: an even lane's signature in the low byte of its 16-bit slot, the
// odd lane's beside it, as the Go loop's e|o<<8.
TEXT ·settleAVX2(SB), NOSPLIT, $0-48
	MOVQ accE+0(FP), DI
	MOVQ accO+8(FP), SI
	MOVQ sig+16(FP), DX
	MOVQ words+24(FP), CX
	SHLQ $3, CX

	VPBROADCASTQ settle+32(FP), Y12
	VPBROADCASTQ sigC+40(FP), Y13
	VPBROADCASTQ lane15<>(SB), Y14
	VPBROADCASTQ laneThrees<>(SB), Y15
	XORQ         BX, BX

step:
	SETTLE((DI)(BX*1), Y0)
	SETTLE((SI)(BX*1), Y1)
	VPSLLW  $8, Y1, Y1
	VPOR    Y1, Y0, Y0
	VMOVDQU Y0, (DX)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     step
	VZEROUPPER
	RET
