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

// The lognormal kernel's constants, each repeated in four lanes so that it
// can be a ymm memory operand K(name). The Erfinv coefficients are those of
// math/erfinv.go, the Log constants those of math/log_amd64.s and the Exp
// constants those of math/exp_amd64.s, with the same float64 bits: E3–E8
// are exp_amd64.s's Taylor coefficients 1/3! to 1/8!. TWO52 and TWO52K are
// 2^52 and 2^52 + 0x3FE, which turn a biased exponent into archLog's k.
#define K(name) name<>(SB)
#define K4(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32
K4(ONE, $1.0)
K4(TWO, $2.0)
K4(HALF, $0.5)
K4(SIGN, $0x8000000000000000)
K4(P85, $0.85)
K4(QUARTER, $0.25)
K4(RCENTRAL, $0.180625)
K4(A0, $1.1975323115670912564578e0)
K4(A1, $4.7072688112383978012285e1)
K4(A2, $6.9706266534389598238465e2)
K4(A3, $4.8548868893843886794648e3)
K4(A4, $1.6235862515167575384252e4)
K4(A5, $2.3782041382114385731252e4)
K4(A6, $1.1819493347062294404278e4)
K4(A7, $8.8709406962545514830200e2)
K4(B1, $4.2313330701600911252e1)
K4(B2, $6.8718700749205790830e2)
K4(B3, $5.3941960214247511077e3)
K4(B4, $2.1213794301586595867e4)
K4(B5, $3.9307895800092710610e4)
K4(B6, $2.8729085735721942674e4)
K4(B7, $5.2264952788528545610e3)
K4(LN2, $0.693147180559945309417232121458176568)
K4(FIVE, $5.0)
K4(RTAIL, $1.6)
K4(C0, $1.42343711074968357734e0)
K4(C1, $4.63033784615654529590e0)
K4(C2, $5.76949722146069140550e0)
K4(C3, $3.64784832476320460504e0)
K4(C4, $1.27045825245236838258e0)
K4(C5, $2.41780725177450611770e-1)
K4(C6, $2.27238449892691845833e-2)
K4(C7, $7.74545014278341407640e-4)
K4(D0, $1.4142135623730950488016887e0)
K4(D1, $2.9036514445419946173133295e0)
K4(D2, $2.3707661626024532365971225e0)
K4(D3, $9.7547832001787427186894837e-1)
K4(D4, $2.0945065210512749128288442e-1)
K4(D5, $2.1494160384252876777097297e-2)
K4(D6, $7.7441459065157709165577218e-4)
K4(D7, $1.4859850019840355905497876e-9)
K4(SQRT2, $1.41421356237309504880168872420969808)
K4(FRAC, $0x000FFFFFFFFFFFFF)
K4(TWO52, $0x4330000000000000)
K4(TWO52K, $0x43300000000003FE)
K4(HSQRT2, $7.07106781186547524401e-01)
K4(L1, $6.666666666666735130e-01)
K4(L2, $3.999999999940941908e-01)
K4(L3, $2.857142874366239149e-01)
K4(L4, $2.222219843214978396e-01)
K4(L5, $1.818357216161805012e-01)
K4(L6, $1.531383769920937332e-01)
K4(L7, $1.479819860511658591e-01)
K4(LN2HI, $6.93147180369123816490e-01)
K4(LN2LO, $1.90821492927058770002e-10)
K4(LOG2E, $1.4426950408889634073599246810018920)
K4(LN2U, $0.69314718055966295651160180568695068359375)
K4(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
K4(SIXTEENTH, $0.0625)
K4(E3, $1.6666666666666666667e-1)
K4(E4, $4.1666666666666666667e-2)
K4(E5, $8.3333333333333333333e-3)
K4(E6, $1.3888888888888888889e-3)
K4(E7, $1.9841269841269841270e-4)
K4(E8, $2.4801587301587301587e-5)
K4(KMIN, $-1022.0)
K4(KMAX, $1023.0)
K4(BIAS, $0x3FF)
K4(ABS, $0x7FFFFFFFFFFFFFFF)

// The lognormal kernel replays, for each lane, what amd64 runs for
// rng.LogNormalQuantile(mu, sigma, u), operation for operation: math.Erfinv
// as compiled from erfinv.go (no fused multiply-add), math.Log as archLog
// (log_amd64.s) and math.Exp as archExp's FMA sequence (exp_amd64.s). A
// product or a sum may swap its operands and a difference a − b may be
// the sum (−b) + a, which round the same; a quotient and a fused
// multiply-add keep theirs. Both of Erfinv's branches are computed, and
// their numerators and denominators are blended before one division,
// which rounds each lane's quotient as its own branch does. The macros
// below each run one step for four lanes; the kernel runs every step on
// lanes 0–3 and then on lanes 4–7, so that the two halves' dependency
// chains overlap.
//
// A lane leaves the replay, and the kernel stops at its entry without
// storing it, in two cases:
//
//   - The tail's r = sqrt(ln2 − log(w)), w = 1 − |x|, is above 5 or NaN:
//     Erfinv's far-tail branch, u below about 1.4e-11 or above
//     1 − 1.4e-11. Every u outside (0, 1), and NaN, lands here too, so
//     neither LogNormalQuantile's clamp (to 2^-53 and 1 − 2^-53, both in
//     the far tail) nor Erfinv's special cases (|x| >= 1) need an
//     instruction: w = 0 gives log(w) = −709 on archLog's generic path, and
//     a negative or NaN w, whose sign bit LNLOG leaves in the exponent
//     (archLog masks it out, but returns NaN for such a w before it gets
//     there), gives log(w) > 700 and so a NaN r.
//   - k = round(x·log2(e)) of the Exp argument x is outside
//     [−1022, 1023]: archExp's special cases (a NaN or an infinite x
//     converts to the integer indefinite, −2^31, and an x above Overflow
//     to k >= 1024) and its overflow and subnormal scalings.
//
// Every lane kept thus takes the scalar path's branches, with a positive
// normal w.

// LNW sets w = 1 − |2u − 1| for the four draws u at off(R10)(AX*1).
#define LNW(off, w) \
	VMOVUPD off(R10)(AX*1), w                         ; \
	VADDPD  w, w, w           /* 2u, exact */         ; \
	VSUBPD  K(ONE), w, w      /* x = 2u − 1 */        ; \
	VORPD   K(SIGN), w, w     /* −|x| */              ; \
	VADDPD  K(ONE), w, w

// LNLOG sets k = log(w) as archLog does for a positive normal w; w, s, s2,
// s4 and p are scratch.
#define LNLOG(w, k, s, s2, s4, p) \
	VPSRLQ  $52, w, k         /* w's biased exponent */ ; \
	VPOR    K(TWO52), k, k                              ; \
	VSUBPD  K(TWO52K), k, k   /* k = exponent − 0x3FE */ ; \
	VANDPD  K(FRAC), w, w                               ; \
	VORPD   K(HALF), w, w     /* f1 = frexp(w) */       ; \
	VMOVUPD K(HSQRT2), s                                ; \
	VCMPPD  $5, w, s, s       /* CMPSD X2, X0, 5 */     ; \
	VANDPD  K(ONE), s, s                                ; \
	VSUBPD  s, k, k           /* k −= 1 */              ; \
	VADDPD  K(ONE), s, s                                ; \
	VMULPD  s, w, w           /* f1 *= 2 */             ; \
	VSUBPD  K(ONE), w, w      /* f = f1 − 1 */          ; \
	VADDPD  K(TWO), w, s                                ; \
	VDIVPD  s, w, s           /* s = f / (2 + f) */     ; \
	VMULPD  s, s, s2                                    ; \
	VMULPD  s2, s2, s4                                  ; \
	VMULPD  K(L7), s4, p                                ; \
	VADDPD  K(L5), p, p                                 ; \
	VMULPD  s4, p, p                                    ; \
	VADDPD  K(L3), p, p                                 ; \
	VMULPD  s4, p, p                                    ; \
	VADDPD  K(L1), p, p                                 ; \
	VMULPD  p, s2, s2         /* t1 */                  ; \
	VMULPD  K(L6), s4, p                                ; \
	VADDPD  K(L4), p, p                                 ; \
	VMULPD  s4, p, p                                    ; \
	VADDPD  K(L2), p, p                                 ; \
	VMULPD  p, s4, s4         /* t2 */                  ; \
	VADDPD  s4, s2, s2        /* R = t1 + t2 */         ; \
	VMULPD  K(HALF), w, p                               ; \
	VMULPD  w, p, p           /* hfsq = 0.5·f·f */      ; \
	VADDPD  p, s2, s2                                   ; \
	VMULPD  s2, s, s          /* s·(hfsq + R) */        ; \
	VMULPD  K(LN2LO), k, s2                             ; \
	VADDPD  s2, s, s          /* + k·Ln2Lo */           ; \
	VSUBPD  s, p, p                                     ; \
	VSUBPD  w, p, p                                     ; \
	VMULPD  K(LN2HI), k, k                              ; \
	VSUBPD  p, k, k           /* log(w) */

// LNTAIL takes l = log(1 − |x|) to Erfinv's tail numerator z1 and
// denominator z2 at r − 1.6, r = sqrt(ln2 − l), and sets ok to r <= 5; l
// is scratch.
#define LNTAIL(l, z1, z2, ok) \
	VXORPD  K(SIGN), l, l                               ; \
	VADDPD  K(LN2), l, l      /* ln2 − l */             ; \
	VSQRTPD l, l              /* r */                   ; \
	VCMPPD  $0x12, K(FIVE), l, ok /* r <= 5 (LE_OQ) */  ; \
	VSUBPD  K(RTAIL), l, l       /* r − 1.6 */             ; \
	VMULPD  K(C7), l, z1                                ; \
	VADDPD  K(C6), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C5), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C4), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C3), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C2), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C1), z1, z1                               ; \
	VMULPD  l, z1, z1                                   ; \
	VADDPD  K(C0), z1, z1                               ; \
	VMULPD  K(D7), l, z2                                ; \
	VADDPD  K(D6), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D5), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D4), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D3), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D2), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D1), z2, z2                               ; \
	VMULPD  l, z2, z2                                   ; \
	VADDPD  K(D0), z2, z2

// LNCENTRAL computes Erfinv's central numerator c1 and denominator c2 at
// r = 0.180625 − 0.25·x·x for the draws at off, blends them into z1 and z2
// where |x| <= 0.85 and sets z1 to Erfinv(|x|). a, r, c1 and c2 are
// scratch.
#define LNCENTRAL(off, a, r, c1, c2, z1, z2) \
	VMOVUPD off(R10)(AX*1), a                           ; \
	VADDPD  a, a, a                                     ; \
	VSUBPD  K(ONE), a, a                                ; \
	VANDPD  K(ABS), a, a      /* |x| */                 ; \
	VMULPD  K(QUARTER), a, r                            ; \
	VMULPD  a, r, r                                     ; \
	VXORPD  K(SIGN), r, r                               ; \
	VADDPD  K(RCENTRAL), r, r       /* 0.180625 − 0.25·x·x */ ; \
	VMULPD  K(A7), r, c1                                ; \
	VADDPD  K(A6), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A5), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A4), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A3), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A2), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A1), c1, c1                               ; \
	VMULPD  r, c1, c1                                   ; \
	VADDPD  K(A0), c1, c1                               ; \
	VMULPD  K(B7), r, c2                                ; \
	VADDPD  K(B6), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(B5), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(B4), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(B3), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(B2), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(B1), c2, c2                               ; \
	VMULPD  r, c2, c2                                   ; \
	VADDPD  K(ONE), c2, c2    /* b0 = 1 */              ; \
	VMULPD  c1, a, c1         /* x·z1 */                ; \
	VCMPPD  $0x12, K(P85), a, a /* |x| <= 0.85 */       ; \
	VBLENDVPD a, c1, z1, z1                             ; \
	VBLENDVPD a, c2, z2, z2                             ; \
	VDIVPD  z2, z1, z1

// LNEXP gives e = Erfinv(|x|) the sign of x = 2u − 1 for the draws at off,
// sets e to exp(mu + sigma·(Sqrt2·e)) as archExp's FMA sequence does, with
// mu in Y15 and sigma in Y14, and clears the lanes of ok whose k is
// outside [−1022, 1023]. k, kx (not k's low half), p and t are scratch.
#define LNEXP(off, e, k, kx, p, t, ok) \
	VMOVUPD off(R10)(AX*1), t                           ; \
	VADDPD  t, t, t                                     ; \
	VSUBPD  K(ONE), t, t                                ; \
	VANDPD  K(SIGN), t, t     /* x < 0 */               ; \
	VXORPD  t, e, e           /* Erfinv(x) */           ; \
	VMULPD  K(SQRT2), e, e                              ; \
	VMULPD  Y14, e, e                                   ; \
	VADDPD  Y15, e, e         /* mu + sigma·(…) */      ; \
	VMULPD  K(LOG2E), e, k                              ; \
	VCVTPD2DQY k, kx          /* k, rounded to even */  ; \
	VCVTDQ2PD kx, k                                     ; \
	VCMPPD  $0x1D, K(KMIN), k, t /* k >= −1022 (GE_OQ) */ ; \
	VANDPD  t, ok, ok                                   ; \
	VCMPPD  $0x12, K(KMAX), k, t /* k <= 1023 */        ; \
	VANDPD  t, ok, ok                                   ; \
	VFNMADD231PD K(LN2U), k, e /* e −= k·LN2U, fused */ ; \
	VFNMADD231PD K(LN2L), k, e                          ; \
	VMULPD  K(SIXTEENTH), e, e                          ; \
	VMOVUPD K(E8), p                                    ; \
	VFMADD213PD K(E7), e, p   /* p = e·p + c, fused */  ; \
	VFMADD213PD K(E6), e, p                             ; \
	VFMADD213PD K(E5), e, p                             ; \
	VFMADD213PD K(E4), e, p                             ; \
	VFMADD213PD K(E3), e, p                             ; \
	VFMADD213PD K(HALF), e, p                           ; \
	VFMADD213PD K(ONE), e, p                            ; \
	VMULPD  p, e, e                                     ; \
	VADDPD  K(TWO), e, p                                ; \
	VMULPD  p, e, e                                     ; \
	VADDPD  K(TWO), e, p                                ; \
	VMULPD  p, e, e                                     ; \
	VADDPD  K(TWO), e, p                                ; \
	VMULPD  p, e, e                                     ; \
	VADDPD  K(TWO), e, p                                ; \
	VFMADD213PD K(ONE), p, e  /* (e + 2)·e + 1, fused */ ; \
	VPMOVSXDQ kx, k                                     ; \
	VPADDQ  K(BIAS), k, k                               ; \
	VPSLLQ  $52, k, k         /* 2^k */                 ; \
	VMULPD  k, e, e

// func lognormal8AVX(ui []int32, lo, mu, sigma, u, dst []float64, stride, d0, d1, e int) int
//
// The lognormal model's transform for eight unmirrored, uncorrelated
// lanes, in AVX2 and FMA: for entries e, e+1, … it writes
// rng.LogNormalQuantile(mu[e], sigma[e], u) to the eight lanes at
// dst[e*stride:], or lo[e] for a degenerate entry (ui[e] < 0), and returns
// the entry it stopped at: the first whose draw lies outside the chunk
// [d0, d1), or the first with a lane the replay above does not cover.
// Lanes 0–3 run in Y0–Y6 and lanes 4–7 in Y7–Y13. Every length is checked
// by the Go caller.
TEXT ·lognormal8AVX(SB), NOSPLIT, $0-184
	MOVQ ui_base+0(FP), SI
	MOVQ ui_len+8(FP), CX
	MOVQ lo_base+24(FP), R8
	MOVQ mu_base+48(FP), R9
	MOVQ sigma_base+72(FP), R11
	MOVQ u_base+96(FP), R10
	MOVQ dst_base+120(FP), DI
	MOVQ stride+144(FP), R12
	SHLQ $3, R12                // stride in bytes
	MOVQ d0+152(FP), R13
	MOVQ d1+160(FP), DX
	SUBQ R13, DX                // rows in the chunk
	MOVQ e+168(FP), BX
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
	VBROADCASTSD (R9)(BX*8), Y15
	VBROADCASTSD (R11)(BX*8), Y14
	LNW(0, Y0)
	LNW(32, Y7)
	LNLOG(Y0, Y1, Y2, Y3, Y4, Y5)
	LNLOG(Y7, Y8, Y9, Y10, Y11, Y12)
	LNTAIL(Y1, Y0, Y2, Y6)
	LNTAIL(Y8, Y7, Y9, Y13)
	LNCENTRAL(0, Y1, Y3, Y4, Y5, Y0, Y2)
	LNCENTRAL(32, Y8, Y10, Y11, Y12, Y7, Y9)
	LNEXP(0, Y0, Y1, X2, Y3, Y4, Y6)
	LNEXP(32, Y7, Y8, X9, Y10, Y11, Y13)
	VANDPD  Y13, Y6, Y6
	VTESTPD K(SIGN), Y6         // CF: every lane kept
	JCC     done
	VMOVUPD Y0, (DI)
	VMOVUPD Y7, 32(DI)
	INCQ BX
	ADDQ R12, DI
	JMP  entry

degenerate:
	VBROADCASTSD (R8)(BX*8), Y0
	VMOVUPD Y0, (DI)
	VMOVUPD Y0, 32(DI)
	INCQ BX
	ADDQ R12, DI
	JMP  entry

done:
	VZEROUPPER
	MOVQ BX, ret+176(FP)
	RET
