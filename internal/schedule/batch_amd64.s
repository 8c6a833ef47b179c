#include "textflag.h"

// func batch8AVX(topo, predOff, predTo, dpred, idx []int32, predComm, dur, finish []float64, out *[8]float64)
//
// makespanBatch8 on two ymm halves: Y0/Y1 hold lanes 0-3/4-7 of the
// current task's start time and Y4/Y5 those of the running makespan. Task
// v's durations are block idx[v] of dur, or block v when idx is nil. Go's
// AVX operand order is reversed from Intel's: "VADDPD b, a, d" sets
// d = a + b and "VMAXPD b, a, d" sets d = (a > b ? a : b), which is the
// scalar "if a > b { b = a }" in every case, NaN and ±0 included, when
// d is b. Every slice length and every block idx names is checked by the
// Go caller.
TEXT ·batch8AVX(SB), NOSPLIT, $0-200
	MOVQ topo_base+0(FP), SI
	MOVQ topo_len+8(FP), CX
	MOVQ predOff_base+24(FP), R8
	MOVQ predTo_base+48(FP), R9
	MOVQ dpred_base+72(FP), R10
	MOVQ idx_base+96(FP), R14
	MOVQ predComm_base+120(FP), R11
	MOVQ dur_base+144(FP), R12
	MOVQ finish_base+168(FP), R13
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	TESTQ  CX, CX
	JEQ    done

task:
	MOVLQSX (SI), AX            // v = topo[i]
	ADDQ    $4, SI
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	MOVLQSX (R8)(AX*4), BX      // k = predOff[v]
	MOVLQSX 4(R8)(AX*4), DX     // predOff[v+1]
	CMPQ    BX, DX
	JGE     disjunctive

arc:
	MOVLQSX      (R9)(BX*4), DI // u = predTo[k]
	SHLQ         $6, DI         // u's finish block: 8 lanes × 8 bytes
	VBROADCASTSD (R11)(BX*8), Y2
	VMOVUPD      (R13)(DI*1), Y6
	VMOVUPD      32(R13)(DI*1), Y7
	VADDPD       Y2, Y6, Y6     // t = fin + c
	VADDPD       Y2, Y7, Y7
	VMAXPD       Y0, Y6, Y0     // if t > st { st = t }
	VMAXPD       Y1, Y7, Y1
	INCQ         BX
	CMPQ         BX, DX
	JLT          arc

disjunctive:
	// The disjunctive predecessor costs zero communication.
	MOVLQSX (R10)(AX*4), DI     // u = dpred[v]
	TESTQ   DI, DI
	JLT     store
	SHLQ    $6, DI
	VMOVUPD (R13)(DI*1), Y6
	VMOVUPD 32(R13)(DI*1), Y7
	VMAXPD  Y0, Y6, Y0          // if fin > st { st = fin }
	VMAXPD  Y1, Y7, Y1

store:
	MOVQ    AX, DX              // block v without an index
	TESTQ   R14, R14
	JEQ     block
	MOVLQSX (R14)(AX*4), DX     // block idx[v]

block:
	SHLQ    $6, DX
	SHLQ    $6, AX
	VADDPD  (R12)(DX*1), Y0, Y0 // finish = st + dur
	VADDPD  32(R12)(DX*1), Y1, Y1
	VMOVUPD Y0, (R13)(AX*1)
	VMOVUPD Y1, 32(R13)(AX*1)
	VMAXPD  Y4, Y0, Y4          // if finish > out { out = finish }
	VMAXPD  Y5, Y1, Y5
	DECQ    CX
	JNE     task

done:
	MOVQ    out+192(FP), DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VZEROUPPER
	RET
