#include "textflag.h"

// The SELU kernels. seluBlocks evaluates exp four lanes at a time with the
// instruction sequence of the FMA branch of Go's math.Exp
// ($GOROOT/src/math/exp_amd64.s, Shibata's SLEEF method) in packed form, so
// every lane rounds exactly where the scalar code rounds. Its constants are
// that file's, spelled the same way, and replicated across four lanes.

// BCAST4 fills the 32 bytes at seluconst<>+off with four copies of val.
#define BCAST4(off, val) \
	DATA seluconst<>+(off)(SB)/8, val \
	DATA seluconst<>+(off+8)(SB)/8, val \
	DATA seluconst<>+(off+16)(SB)/8, val \
	DATA seluconst<>+(off+24)(SB)/8, val

BCAST4(0, $1.4426950408889634073599246810018920) // LOG2E
BCAST4(32, $0.69314718055966295651160180568695068359375) // LN2U
BCAST4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
BCAST4(96, $0.0625)
BCAST4(128, $2.4801587301587301587e-5)
BCAST4(160, $1.9841269841269841270e-4)
BCAST4(192, $1.3888888888888888889e-3)
BCAST4(224, $8.3333333333333333333e-3)
BCAST4(256, $4.1666666666666666667e-2)
BCAST4(288, $1.6666666666666666667e-1)
BCAST4(320, $0.5)
BCAST4(352, $1.0)
BCAST4(384, $2.0)
BCAST4(416, $-708.0) // the range gate
DATA seluconst<>+448(SB)/4, $0x3FF // the exponent bias, four int32 lanes
DATA seluconst<>+452(SB)/4, $0x3FF
DATA seluconst<>+456(SB)/4, $0x3FF
DATA seluconst<>+460(SB)/4, $0x3FF
GLOBL seluconst<>(SB), RODATA|NOPTR, $464

#define LOG2E seluconst<>+0(SB)
#define LN2U seluconst<>+32(SB)
#define LN2L seluconst<>+64(SB)
#define SIXTEENTH seluconst<>+96(SB)
#define C8 seluconst<>+128(SB)
#define C7 seluconst<>+160(SB)
#define C6 seluconst<>+192(SB)
#define C5 seluconst<>+224(SB)
#define C4 seluconst<>+256(SB)
#define C3 seluconst<>+288(SB)
#define HALF seluconst<>+320(SB)
#define ONE seluconst<>+352(SB)
#define TWO seluconst<>+384(SB)
#define GATE seluconst<>+416(SB)
#define BIAS seluconst<>+448(SB)

// func seluBlocks(out, ex, x *float64, n int, lambda, scale float64) int
//
// For each block of four lanes, i < n in steps of 4: e = exp(min(x[i], 0)),
// ex[i] = e and out[i] = x[i] > 0 ? lambda·x[i] : scale·(e − 1). It stops
// before the first block with a lane below −708 or NaN, where math.Exp
// leaves the straight-line path (its denormal and underflow branches start
// below about −708.4), and returns how many lanes it wrote.
TEXT ·seluBlocks(SB), NOSPLIT, $0-56
	MOVQ         out+0(FP), DI
	MOVQ         ex+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD lambda+32(FP), Y15
	VBROADCASTSD scale+40(FP), Y14
	VMOVUPD      GATE, Y13
	VXORPD       Y12, Y12, Y12
	XORQ         AX, AX

loop:
	CMPQ AX, CX
	JGE  done

	// The range gate: every lane x ≥ −708 (false for NaN).
	VMOVUPD   (DX)(AX*8), Y0
	VCMPPD    $0x1D, Y13, Y0, Y1 // GE_OQ
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       done

	// exp(min(x, 0)), instruction for instruction the avxfma branch.
	VMINPD       Y12, Y0, Y2
	VMULPD       LOG2E, Y2, Y3
	VCVTPD2DQY   Y3, X4 // k, rounded to nearest as CVTSD2SL
	VCVTDQ2PD    X4, Y5
	VFNMADD231PD LN2U, Y5, Y2
	VFNMADD231PD LN2L, Y5, Y2
	VMULPD       SIXTEENTH, Y2, Y2
	VMOVUPD      C8, Y6
	VFMADD213PD  C7, Y2, Y6
	VFMADD213PD  C6, Y2, Y6
	VFMADD213PD  C5, Y2, Y6
	VFMADD213PD  C4, Y2, Y6
	VFMADD213PD  C3, Y2, Y6
	VFMADD213PD  HALF, Y2, Y6
	VFMADD213PD  ONE, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VMULPD       Y6, Y2, Y2
	VADDPD       TWO, Y2, Y6
	VFMADD213PD  ONE, Y6, Y2

	// × 2^k: the biased exponent, zero-extended and shifted into place.
	VPADDD    BIAS, X4, X4
	VPMOVZXDQ X4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y2, Y2
	VMOVUPD   Y2, (SI)(AX*8)

	// out = x > 0 ? λ·x : scale·(e − 1)
	VSUBPD    ONE, Y2, Y7
	VMULPD    Y14, Y7, Y7
	VMULPD    Y15, Y0, Y8
	VCMPPD    $0x1E, Y12, Y0, Y9 // GT_OQ
	VBLENDVPD Y9, Y8, Y7, Y10
	VMOVUPD   Y10, (DI)(AX*8)

	ADDQ $4, AX
	JMP  loop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func seluGradBlocks(gin, grad, x *float64, n int, lambda, alpha float64)
//
// For i < n: gin[i] = x[i] > 0 ? grad[i]·λ : ((grad[i]·λ)·α)·gin[i]. Both
// sides are computed, in the scalar loop's operation order, and the sign of
// x blends one in.
TEXT ·seluGradBlocks(SB), NOSPLIT, $0-48
	MOVQ         gin+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD lambda+32(FP), Y15
	VBROADCASTSD alpha+40(FP), Y14
	VXORPD       Y12, Y12, Y12
	XORQ         AX, AX

gradloop:
	CMPQ      AX, CX
	JGE       graddone
	VMOVUPD   (DX)(AX*8), Y0
	VMULPD    (SI)(AX*8), Y15, Y1
	VMULPD    Y14, Y1, Y2
	VMULPD    (DI)(AX*8), Y2, Y2
	VCMPPD    $0x1E, Y12, Y0, Y3
	VBLENDVPD Y3, Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       gradloop

graddone:
	VZEROUPPER
	RET
