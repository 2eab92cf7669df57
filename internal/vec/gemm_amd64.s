#include "textflag.h"

// func mulAddBlock32(dst, init, a *float64, as int, b *float64, bs, n int)
//
// dst[j] = init[j] + Σ_{p<n} a[p·as]·b[p·bs+j] for j < 32, in eight ymm
// accumulators of four outputs each. Every lane is one output element: it
// starts from init[j] and adds the rounded product a·b for p = 0, 1, …, n−1,
// one VMULPD then one VADDPD per term, exactly the MULSD/ADDSD sequence of
// the scalar loop. No FMA: a fused multiply-add rounds once where the scalar
// loop rounds twice, and would change the bits. init may alias dst.
TEXT ·mulAddBlock32(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ init+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ as+24(FP), BX
	MOVQ b+32(FP), DX
	MOVQ bs+40(FP), R8
	MOVQ n+48(FP), CX
	SHLQ $3, BX
	SHLQ $3, R8

	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVUPD 192(SI), Y6
	VMOVUPD 224(SI), Y7

	TESTQ CX, CX
	JEQ   store

loop:
	VBROADCASTSD (AX), Y8
	VMULPD       0(DX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(DX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(DX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(DX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(DX), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(DX), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(DX), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(DX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         BX, AX
	ADDQ         R8, DX
	DECQ         CX
	JNZ          loop

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
