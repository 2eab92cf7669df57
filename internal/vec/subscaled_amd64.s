#include "textflag.h"

// func subScaledBlocks(dst *float64, f float64, src *float64, n int)
//
// dst[j] -= f·src[j] for j < n, n a positive multiple of 4: per lane one
// VMULPD rounds the product and one VSUBPD subtracts it, the MULSD/SUBSD
// pair of the scalar loop, with src[j] and dst[j] as the first operands
// there as here (so even NaN payloads agree). No FMA: a fused
// multiply-subtract rounds once where the scalar loop rounds twice. The
// main loop takes 16 elements per pass in four independent ymm chains, and
// a 4-wide loop takes the rest.
TEXT ·subScaledBlocks(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	VBROADCASTSD f+8(FP), Y0
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX

loop16:
	CMPQ    AX, BX
	JGE     loop4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y6
	VMOVUPD 64(DI)(AX*8), Y7
	VMOVUPD 96(DI)(AX*8), Y8
	VSUBPD  Y1, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	VMOVUPD Y7, 64(DI)(AX*8)
	VMOVUPD Y8, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     loop16

loop4:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

done:
	VZEROUPPER
	RET
