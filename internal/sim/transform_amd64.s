#include "textflag.h"

// func uniform8AVX(ui []int32, lo, width, u, dst []float64, stride, d0, d1, e int) int
//
// uniformLanesGo for eight unmirrored lanes: for entries e, e+1, … until
// the first whose draw lies outside the chunk [d0, d1), it writes
// lo[e] + width[e]·u to the eight lanes at dst[e*stride:], a multiply then
// an add as in Go (never a fused multiply-add), or lo[e] for a degenerate
// entry (ui[e] < 0), and returns the entry it stopped at. Y0 holds the
// broadcast lo, Y1 the broadcast width. Go's operand order is reversed from
// Intel's: "VMULPD b, a, d" sets d = a·b. Every length is checked by the Go
// caller; a draw index below d0, which ui's ascending order rules out,
// stops the loop instead of reading before the chunk.
TEXT ·uniform8AVX(SB), NOSPLIT, $0-160
	MOVQ ui_base+0(FP), SI
	MOVQ ui_len+8(FP), CX
	MOVQ lo_base+24(FP), R8
	MOVQ width_base+48(FP), R9
	MOVQ u_base+72(FP), R10
	MOVQ dst_base+96(FP), DI
	MOVQ stride+120(FP), R12
	SHLQ $3, R12                // stride in bytes
	MOVQ d0+128(FP), R13
	MOVQ d1+136(FP), DX
	SUBQ R13, DX                // rows in the chunk
	MOVQ e+144(FP), BX
	MOVQ BX, AX
	IMULQ R12, AX
	ADDQ AX, DI                 // entry e's lanes

entry:
	CMPQ    BX, CX
	JGE     done
	MOVLQSX (SI)(BX*4), AX      // i = ui[e]
	TESTQ   AX, AX
	JLT     degenerate
	SUBQ    R13, AX             // row = i − d0
	CMPQ    AX, DX
	JAE     done                // i ≥ d1
	SHLQ    $6, AX
	VBROADCASTSD (R8)(BX*8), Y0
	VBROADCASTSD (R9)(BX*8), Y1
	VMULPD  (R10)(AX*1), Y1, Y2 // width·u
	VMULPD  32(R10)(AX*1), Y1, Y3
	VADDPD  Y0, Y2, Y2          // lo + width·u
	VADDPD  Y0, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	INCQ    BX
	ADDQ    R12, DI
	JMP     entry

degenerate:
	VBROADCASTSD (R8)(BX*8), Y0
	VMOVUPD Y0, (DI)
	VMOVUPD Y0, 32(DI)
	INCQ    BX
	ADDQ    R12, DI
	JMP     entry

done:
	VZEROUPPER
	MOVQ BX, ret+152(FP)
	RET
