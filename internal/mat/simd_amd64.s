//go:build amd64 && !noasm

#include "textflag.h"

// AVX bodies for the mat vector primitives. Every routine here preserves the
// exact rounding sequence of its scalar counterpart in dense.go / simd.go:
// separate VMULPD/VADDPD (no FMA), one 4-lane accumulator for dots reduced
// as (s0+s1)+(s2+s3), and element-independent axpy loops. Lengths are
// multiples of 4 (wrappers handle tails).

DATA onef64<>+0(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL onef64<>(SB), RODATA|NOPTR, $8

DATA signf64<>+0(SB)/8, $0x8000000000000000 // -0.0: the sign bit
GLOBL signf64<>(SB), RODATA|NOPTR, $8

// The dist3 bodies read a 3-D coordinate panel — points stored one after
// another as (x, y, z) — four points (three 32-byte loads) per iteration.
// DIST3 transposes the loads into per-axis vectors with AVX1 lane moves
// only, then forms (d0*d0 + d1*d1) + d2*d2 with dc = xi[c] - p[c] through
// separate VSUBPD/VMULPD/VADDPD, the order of the scalar distance loops.
// In: SI = panel, Y13/Y14/Y15 = broadcast xi[0]/xi[1]/xi[2].
// Out: Y0 = the four squared distances. Clobbers Y1-Y5.
#define DIST3 \
	VMOVUPD    0(SI), Y0;          /* a = [p0x p0y p0z p1x] */ \
	VMOVUPD    32(SI), Y1;         /* b = [p1y p1z p2x p2y] */ \
	VMOVUPD    64(SI), Y2;         /* c = [p2z p3x p3y p3z] */ \
	VBLENDPD   $0x0C, Y1, Y0, Y3;  /* [a0 a1 b2 b3] */ \
	VPERM2F128 $0x21, Y2, Y0, Y4;  /* [a2 a3 c0 c1] */ \
	VBLENDPD   $0x0C, Y2, Y1, Y5;  /* [b0 b1 c2 c3] */ \
	VSHUFPD    $0x0A, Y4, Y3, Y0;  /* x = [a0 a3 b2 c1] */ \
	VSHUFPD    $0x05, Y5, Y3, Y1;  /* y = [a1 b0 b3 c2] */ \
	VSHUFPD    $0x0A, Y5, Y4, Y2;  /* z = [a2 b1 c0 c3] */ \
	VSUBPD     Y0, Y13, Y0;        /* d0 = xi0 - x */ \
	VSUBPD     Y1, Y14, Y1; \
	VSUBPD     Y2, Y15, Y2; \
	VMULPD     Y0, Y0, Y0; \
	VMULPD     Y1, Y1, Y1; \
	VADDPD     Y1, Y0, Y0;         /* d0*d0 + d1*d1 */ \
	VMULPD     Y2, Y2, Y2; \
	VADDPD     Y2, Y0, Y0          /* (d0*d0 + d1*d1) + d2*d2 */

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotBody(row, x []float64) float64
// One ymm accumulator: lane l is the scalar accumulator s_l. Reduced as
// (s0+s1)+(s2+s3) via per-half horizontal adds — NOT a tree over extracted
// halves, which would regroup to (s0+s2)+(s1+s3).
TEXT ·dotBody(SB), NOSPLIT, $0-56
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ x_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

dotloop:
	CMPQ AX, CX
	JGE  dotreduce
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	JMP     dotloop

dotreduce:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X0, X0, X0 // s0+s1
	VHADDPD      X1, X1, X1 // s2+s3
	VADDSD       X1, X0, X0 // (s0+s1)+(s2+s3)
	MOVSD        X0, ret+48(FP)
	VZEROUPPER
	RET

// func dot2Body(r0, r1, x []float64) (float64, float64)
// Two row accumulators sharing each x load; per-row reduction identical to
// dotBody.
TEXT ·dot2Body(SB), NOSPLIT, $0-88
	MOVQ r0_base+0(FP), SI
	MOVQ r0_len+8(FP), CX
	MOVQ r1_base+24(FP), DI
	MOVQ x_base+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

dot2loop:
	CMPQ AX, CX
	JGE  dot2reduce
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  (SI)(AX*8), Y2, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  (DI)(AX*8), Y2, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $4, AX
	JMP     dot2loop

dot2reduce:
	VEXTRACTF128 $1, Y0, X2
	VHADDPD      X0, X0, X0
	VHADDPD      X2, X2, X2
	VADDSD       X2, X0, X0
	MOVSD        X0, ret+72(FP)
	VEXTRACTF128 $1, Y1, X2
	VHADDPD      X1, X1, X1
	VHADDPD      X2, X2, X2
	VADDSD       X2, X1, X1
	MOVSD        X1, ret1+80(FP)
	VZEROUPPER
	RET

// func dotAcc4Body(k, v []float64, acc *[4]float64)
// The accumulator lanes live in memory across chunk calls; each lane sees
// its partial sums in index order, as in the scalar 4-accumulator loop.
TEXT ·dotAcc4Body(SB), NOSPLIT, $0-56
	MOVQ k_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ v_len+32(FP), CX
	MOVQ acc+48(FP), DX
	VMOVUPD (DX), Y0
	XORQ AX, AX

acc4loop:
	CMPQ AX, CX
	JGE  acc4done
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	JMP     acc4loop

acc4done:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func axpyBody(y, x []float64, a float64)
// y[i] += a*x[i]; elements independent, multiply then add, no FMA.
TEXT ·axpyBody(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y2
	XORQ AX, AX

axpyloop:
	CMPQ AX, CX
	JGE  axpydone
	VMULPD  (SI)(AX*8), Y2, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpyloop

axpydone:
	VZEROUPPER
	RET

// func axpy2Body(y, x0, x1 []float64, a0, a1 float64)
// y[i] = (y[i] + a0*x0[i]) + a1*x1[i]: two sequential rounded adds.
TEXT ·axpy2Body(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x0_base+24(FP), SI
	MOVQ x1_base+48(FP), BX
	VBROADCASTSD a0+72(FP), Y2
	VBROADCASTSD a1+80(FP), Y3
	XORQ AX, AX

axpy2loop:
	CMPQ AX, CX
	JGE  axpy2done
	VMULPD  (SI)(AX*8), Y2, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMULPD  (BX)(AX*8), Y3, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy2loop

axpy2done:
	VZEROUPPER
	RET

// func axpy4Body(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i].
TEXT ·axpy4Body(SB), NOSPLIT, $0-152
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x0_base+24(FP), SI
	MOVQ x1_base+48(FP), BX
	MOVQ x2_base+72(FP), R8
	MOVQ x3_base+96(FP), R9
	VBROADCASTSD a0+120(FP), Y2
	VBROADCASTSD a1+128(FP), Y3
	VBROADCASTSD a2+136(FP), Y4
	VBROADCASTSD a3+144(FP), Y5
	XORQ AX, AX

axpy4loop:
	CMPQ AX, CX
	JGE  axpy4done
	VMULPD  (SI)(AX*8), Y2, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMULPD  (BX)(AX*8), Y3, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R8)(AX*8), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*8), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4loop

axpy4done:
	VZEROUPPER
	RET

// func recipSqrtBody(dst, r2 []float64)
// dst = 1/sqrt(r2), masked to 0 where r2 == 0. VSQRTPD and VDIVPD are
// correctly rounded (IEEE-754), hence bitwise-equal to math.Sqrt + divide.
TEXT ·recipSqrtBody(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r2_base+24(FP), SI
	VBROADCASTSD onef64<>(SB), Y3
	VXORPD Y4, Y4, Y4
	XORQ AX, AX

rsloop:
	CMPQ AX, CX
	JGE  rsdone
	VMOVUPD (SI)(AX*8), Y0
	VSQRTPD Y0, Y1
	VDIVPD  Y1, Y3, Y2        // 1.0 / sqrt(r2)
	VCMPPD  $4, Y4, Y0, Y5    // NEQ_UQ: lanes with r2 != 0
	VANDPD  Y5, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     rsloop

rsdone:
	VZEROUPPER
	RET

// func recipCubeBody(dst, r2 []float64)
// dst = 1/(r*r*r) with r = sqrt(r2), masked to 0 where r2 == 0; the r*r then
// *r product order matches the scalar CoulombCubed evaluation.
TEXT ·recipCubeBody(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r2_base+24(FP), SI
	VBROADCASTSD onef64<>(SB), Y3
	VXORPD Y4, Y4, Y4
	XORQ AX, AX

rcloop:
	CMPQ AX, CX
	JGE  rcdone
	VMOVUPD (SI)(AX*8), Y0
	VSQRTPD Y0, Y1
	VMULPD  Y1, Y1, Y2        // r*r
	VMULPD  Y1, Y2, Y2        // (r*r)*r
	VDIVPD  Y2, Y3, Y5        // 1.0 / r^3
	VCMPPD  $4, Y4, Y0, Y6    // NEQ_UQ: lanes with r2 != 0
	VANDPD  Y6, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     rcloop

rcdone:
	VZEROUPPER
	RET

// func dist3Body(dst, p, xi []float64)
// dst[t] = squared distance between xi and panel point t.
TEXT ·dist3Body(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         p_base+24(FP), SI
	MOVQ         xi_base+48(FP), DX
	VBROADCASTSD 0(DX), Y13
	VBROADCASTSD 8(DX), Y14
	VBROADCASTSD 16(DX), Y15
	XORQ         AX, AX

d3loop:
	CMPQ AX, CX
	JGE  d3done
	DIST3
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $96, SI
	ADDQ    $4, AX
	JMP     d3loop

d3done:
	VZEROUPPER
	RET

// func recipSqrtDist3Body(dst, p, xi []float64)
// dst[t] = 1/sqrt(r2) of the panel distance, 0 where r2 == 0 — DIST3
// followed by the recipSqrtBody evaluation without the r2 round trip.
TEXT ·recipSqrtDist3Body(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         p_base+24(FP), SI
	MOVQ         xi_base+48(FP), DX
	VBROADCASTSD 0(DX), Y13
	VBROADCASTSD 8(DX), Y14
	VBROADCASTSD 16(DX), Y15
	XORQ         AX, AX
	VBROADCASTSD onef64<>(SB), Y11
	VXORPD       Y12, Y12, Y12

rsd3loop:
	CMPQ AX, CX
	JGE  rsd3done
	DIST3
	VSQRTPD Y0, Y1
	VDIVPD  Y1, Y11, Y2     // 1.0 / sqrt(r2)
	VCMPPD  $4, Y12, Y0, Y3 // NEQ_UQ: lanes with r2 != 0
	VANDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $96, SI
	ADDQ    $4, AX
	JMP     rsd3loop

rsd3done:
	VZEROUPPER
	RET

// func recipCubeDist3Body(dst, p, xi []float64)
// dst[t] = 1/(r*r*r) with r = sqrt(r2) of the panel distance, 0 where
// r2 == 0 — DIST3 followed by the recipCubeBody evaluation.
TEXT ·recipCubeDist3Body(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         p_base+24(FP), SI
	MOVQ         xi_base+48(FP), DX
	VBROADCASTSD 0(DX), Y13
	VBROADCASTSD 8(DX), Y14
	VBROADCASTSD 16(DX), Y15
	XORQ         AX, AX
	VBROADCASTSD onef64<>(SB), Y11
	VXORPD       Y12, Y12, Y12

rcd3loop:
	CMPQ AX, CX
	JGE  rcd3done
	DIST3
	VSQRTPD Y0, Y1
	VMULPD  Y1, Y1, Y2      // r*r
	VMULPD  Y1, Y2, Y2      // (r*r)*r
	VDIVPD  Y2, Y11, Y2     // 1.0 / r^3
	VCMPPD  $4, Y12, Y0, Y3 // NEQ_UQ: lanes with r2 != 0
	VANDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $96, SI
	ADDQ    $4, AX
	JMP     rcd3loop

rcd3done:
	VZEROUPPER
	RET

// func negSqrtDist3Body(dst, p, xi []float64)
// dst[t] = -sqrt(r2) of the panel distance — DIST3, VSQRTPD, then a sign-bit
// flip, which is exactly Go's float negation.
TEXT ·negSqrtDist3Body(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         p_base+24(FP), SI
	MOVQ         xi_base+48(FP), DX
	VBROADCASTSD 0(DX), Y13
	VBROADCASTSD 8(DX), Y14
	VBROADCASTSD 16(DX), Y15
	XORQ         AX, AX
	VBROADCASTSD signf64<>(SB), Y12

nsd3loop:
	CMPQ AX, CX
	JGE  nsd3done
	DIST3
	VSQRTPD Y0, Y1
	VXORPD  Y12, Y1, Y1     // -sqrt(r2)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $96, SI
	ADDQ    $4, AX
	JMP     nsd3loop

nsd3done:
	VZEROUPPER
	RET

// ExpChunk bodies: 4-lane transcriptions of the Go runtime's amd64 math.Exp
// (archExp in $GOROOT/src/math/exp_amd64.s), one per arithmetic body of
// archExp, operation for operation in its order, so each lane rounds exactly
// as math.Exp does on a CPU that runs that body. The constants are archExp's,
// written with the same literals and replicated over the four lanes.

// EXPCONST fills the 32 bytes at expdata<>+off with four copies of v.
#define EXPCONST(off, v) \
	DATA expdata<>+(off)(SB)/8, v; \
	DATA expdata<>+(off+8)(SB)/8, v; \
	DATA expdata<>+(off+16)(SB)/8, v; \
	DATA expdata<>+(off+24)(SB)/8, v

EXPCONST(0, $1.4426950408889634073599246810018920) // log2(e)
EXPCONST(32, $0.69314718055966295651160180568695068359375) // ln2 upper half
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12) // ln2 lower half
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5) // 1/8!
EXPCONST(160, $1.9841269841269841270e-4) // 1/7!
EXPCONST(192, $1.3888888888888888889e-3) // 1/6!
EXPCONST(224, $8.3333333333333333333e-3) // 1/5!
EXPCONST(256, $4.1666666666666666667e-2) // 1/4!
EXPCONST(288, $1.6666666666666666667e-1) // 1/3!
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $-708.0) // fast range low end
EXPCONST(448, $709.0) // fast range high end
DATA expdata<>+480(SB)/8, $0x000003FF000003FF // exponent bias, four int32 lanes
DATA expdata<>+488(SB)/8, $0x000003FF000003FF
GLOBL expdata<>(SB), RODATA|NOPTR, $496

// EXPRANGE sets the flags for JNE to leave the loop unless every lane of
// Y0 lies in [-708, 709], where archExp takes neither its non-finite,
// overflow nor denormal branch (ordered compares: NaN lanes fail).
// Clobbers Y1, Y2, BX.
#define EXPRANGE \
	VCMPPD    $0x1D, expdata<>+416(SB), Y0, Y1; /* GE_OQ */ \
	VCMPPD    $0x12, expdata<>+448(SB), Y0, Y2; /* LE_OQ */ \
	VANDPD    Y2, Y1, Y1; \
	VMOVMSKPD Y1, BX; \
	CMPQ      BX, $15

// EXPK is archExp's range reduction k = round(x·log2e): X3 = k as four
// int32 lanes (CVTSD2SL under the default rounding mode), Y1 = float64(k).
#define EXPK \
	VMULPD     expdata<>+0(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X3; \
	VCVTDQ2PD  X3, Y1

// EXPSCALE multiplies Y0 by 2^k, building the factor from exponent bits as
// archExp's ldexp does (k + 0x3FF shifted into the exponent field), with
// 128-bit integer ops so AVX1 suffices. Clobbers X3-X5.
#define EXPSCALE \
	VPADDD      expdata<>+480(SB), X3, X3; \
	VPMOVZXDQ   X3, X4; \
	VPSHUFD     $0xEE, X3, X5; \
	VPMOVZXDQ   X5, X5; \
	VPSLLQ      $52, X4, X4; \
	VPSLLQ      $52, X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD      Y4, Y0, Y0

// func expFMABody(dst, x []float64) int
// archExp's FMA body (taken when math's useFMA is set). Processes whole
// quads of x and returns how many elements it wrote: it stops at the first
// quad holding a lane outside the fast range, which the caller evaluates
// with math.Exp.
TEXT ·expFMABody(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

efloop:
	CMPQ AX, CX
	JGE  efdone
	VMOVUPD (SI)(AX*8), Y0
	EXPRANGE
	JNE  efdone
	EXPK
	VFNMADD231PD expdata<>+32(SB), Y1, Y0 // x = x - k·ln2U, one rounding
	VFNMADD231PD expdata<>+64(SB), Y1, Y0 // x = x - k·ln2L
	VMULPD       expdata<>+96(SB), Y0, Y0 // x *= 1/16
	VMOVUPD      expdata<>+128(SB), Y1
	VFMADD213PD  expdata<>+160(SB), Y0, Y1 // p = p·x + 1/7!
	VFMADD213PD  expdata<>+192(SB), Y0, Y1
	VFMADD213PD  expdata<>+224(SB), Y0, Y1
	VFMADD213PD  expdata<>+256(SB), Y0, Y1
	VFMADD213PD  expdata<>+288(SB), Y0, Y1
	VFMADD213PD  expdata<>+320(SB), Y0, Y1
	VFMADD213PD  expdata<>+352(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0 // x *= p
	VADDPD       expdata<>+384(SB), Y0, Y1 // three squarings x *= x+2
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expdata<>+384(SB), Y0, Y1
	VFMADD213PD  expdata<>+352(SB), Y1, Y0 // x = x·(x+2) + 1, one rounding
	EXPSCALE
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          efloop

efdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expPlainBody(dst, x []float64) int
// archExp's mul/add body (taken without FMA): expFMABody with every fused
// step split into a rounded multiply and a rounded add or subtract.
TEXT ·expPlainBody(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

eploop:
	CMPQ AX, CX
	JGE  epdone
	VMOVUPD (SI)(AX*8), Y0
	EXPRANGE
	JNE  epdone
	EXPK
	VMULPD expdata<>+32(SB), Y1, Y2 // x = x - k·ln2U
	VSUBPD Y2, Y0, Y0
	VMULPD expdata<>+64(SB), Y1, Y2 // x = x - k·ln2L
	VSUBPD Y2, Y0, Y0
	VMULPD expdata<>+96(SB), Y0, Y0 // x *= 1/16
	VMULPD expdata<>+128(SB), Y0, Y1
	VADDPD expdata<>+160(SB), Y1, Y1 // p = p·x + 1/7!
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+192(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+224(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+256(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+288(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+320(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD expdata<>+352(SB), Y1, Y1
	VMULPD Y1, Y0, Y0 // x *= p
	VADDPD expdata<>+384(SB), Y0, Y1 // four squarings x *= x+2
	VMULPD Y1, Y0, Y0
	VADDPD expdata<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expdata<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expdata<>+384(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD expdata<>+352(SB), Y0, Y0 // x += 1
	EXPSCALE
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     eploop

epdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
