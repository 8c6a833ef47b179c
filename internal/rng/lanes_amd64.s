#include "textflag.h"

// The bits of 2^52, the uint64 1 and 2^-53.
DATA lanesTwo52<>+0(SB)/8, $0x4330000000000000
GLOBL lanesTwo52<>(SB), RODATA|NOPTR, $8
DATA lanesOne<>+0(SB)/8, $1
GLOBL lanesOne<>(SB), RODATA|NOPTR, $8
DATA lanesTwoM53<>+0(SB)/8, $0x3ca0000000000000
GLOBL lanesTwoM53<>(SB), RODATA|NOPTR, $8

// func fill8AVX2(s *[4][8]uint64, dst []float64)
//
// Eight xoshiro256++ steps per row of dst, lanes 0-3 in the low ymm
// registers and lanes 4-7 in the high ones: Y0/Y1 hold state word s0,
// Y2/Y3 s1, Y4/Y5 s2 and Y6/Y7 s3. AVX2 has no 64-bit rotate, so a rotate
// is two shifts and an OR. The output x becomes float64(x>>11)/2^53
// exactly as (2·h + b)·2^-53 with h = x>>12 and b = (x>>11)&1: OR-ing an
// integer below 2^52 into the bits of 2^52 and subtracting 2^52 converts
// it exactly, 2·h + b < 2^53 is exact, and so is the power-of-two scale.
// Go's operand order is reversed from Intel's: "VPSLLQ $k, a, d" sets
// d = a << k and "VSUBPD b, a, d" sets d = a − b. Every instruction is
// VEX-encoded: a legacy-SSE instruction after the ymm loads would cost a
// state transition per call.
TEXT ·fill8AVX2(SB), NOSPLIT, $0-32
	MOVQ s+0(FP), DI
	MOVQ dst_base+8(FP), SI
	MOVQ dst_len+16(FP), CX
	SHRQ $3, CX
	JEQ  ret

	VMOVDQU      0(DI), Y0
	VMOVDQU      32(DI), Y1
	VMOVDQU      64(DI), Y2
	VMOVDQU      96(DI), Y3
	VMOVDQU      128(DI), Y4
	VMOVDQU      160(DI), Y5
	VMOVDQU      192(DI), Y6
	VMOVDQU      224(DI), Y7
	VBROADCASTSD lanesTwo52<>(SB), Y13
	VPBROADCASTQ lanesOne<>(SB), Y14
	VBROADCASTSD lanesTwoM53<>(SB), Y15

row:
	// Lanes 0-3.
	VPADDQ  Y6, Y0, Y8  // s0 + s3
	VPSLLQ  $23, Y8, Y9
	VPSRLQ  $41, Y8, Y8
	VPOR    Y9, Y8, Y8
	VPADDQ  Y0, Y8, Y8  // x = rotl(s0+s3, 23) + s0
	VPSLLQ  $17, Y2, Y9 // t = s1 << 17
	VPXOR   Y0, Y4, Y4  // s2 ^= s0
	VPXOR   Y2, Y6, Y6  // s3 ^= s1
	VPXOR   Y4, Y2, Y2  // s1 ^= s2
	VPXOR   Y6, Y0, Y0  // s0 ^= s3
	VPXOR   Y9, Y4, Y4  // s2 ^= t
	VPSLLQ  $45, Y6, Y9
	VPSRLQ  $19, Y6, Y6
	VPOR    Y9, Y6, Y6  // s3 = rotl(s3, 45)
	VPSRLQ  $12, Y8, Y9 // h
	VPSRLQ  $11, Y8, Y8
	VPAND   Y14, Y8, Y8 // b
	VPOR    Y13, Y9, Y9
	VSUBPD  Y13, Y9, Y9 // float64(h)
	VPOR    Y13, Y8, Y8
	VSUBPD  Y13, Y8, Y8 // float64(b)
	VADDPD  Y9, Y9, Y9
	VADDPD  Y8, Y9, Y9  // 2·h + b
	VMULPD  Y15, Y9, Y9
	VMOVUPD Y9, (SI)

	// Lanes 4-7.
	VPADDQ  Y7, Y1, Y10
	VPSLLQ  $23, Y10, Y11
	VPSRLQ  $41, Y10, Y10
	VPOR    Y11, Y10, Y10
	VPADDQ  Y1, Y10, Y10
	VPSLLQ  $17, Y3, Y11
	VPXOR   Y1, Y5, Y5
	VPXOR   Y3, Y7, Y7
	VPXOR   Y5, Y3, Y3
	VPXOR   Y7, Y1, Y1
	VPXOR   Y11, Y5, Y5
	VPSLLQ  $45, Y7, Y11
	VPSRLQ  $19, Y7, Y7
	VPOR    Y11, Y7, Y7
	VPSRLQ  $12, Y10, Y11
	VPSRLQ  $11, Y10, Y10
	VPAND   Y14, Y10, Y10
	VPOR    Y13, Y11, Y11
	VSUBPD  Y13, Y11, Y11
	VPOR    Y13, Y10, Y10
	VSUBPD  Y13, Y10, Y10
	VADDPD  Y11, Y11, Y11
	VADDPD  Y10, Y11, Y11
	VMULPD  Y15, Y11, Y11
	VMOVUPD Y11, 32(SI)

	ADDQ $64, SI
	DECQ CX
	JNE  row

	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER

ret:
	RET
