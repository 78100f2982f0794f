#include "textflag.h"

// (−0, +0, −0, +0): flips the sign of each lane's real slot.
DATA negre<>+0(SB)/8, $0x8000000000000000
DATA negre<>+8(SB)/8, $0
DATA negre<>+16(SB)/8, $0x8000000000000000
DATA negre<>+24(SB)/8, $0
GLOBL negre<>(SB), RODATA|NOPTR, $32

// func addTrainAVX2(dst []complex128, evs []int32, ws []float64, steps []complex128)
//
// Eight events per sweep over the bins, two per YMM register: Yk holds the
// phasors of events 2k (low lane) and 2k+1 (high lane) as (re, im) pairs,
// Y(4+k) their steps' real parts (sr, sr) and Y(8+k) their imaginary parts
// as (−si, si). At each bin, X12 loads dst[n], adds the eight phasors in
// event order with 128-bit adds and is stored back. Each phasor then becomes
// p·step = (pr·sr + pi·(−si), pi·sr + pr·si), bit for bit Go's
// (pr·sr − pi·si, pr·si + pi·sr). No FMA: every product is rounded before
// it is added, as in Go.
TEXT ·addTrainAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ evs_base+24(FP), SI
	MOVQ evs_len+32(FP), DX
	MOVQ ws_base+48(FP), R8
	MOVQ steps_base+72(FP), R9
	TESTQ BX, BX
	JZ   done
	SHRQ $3, DX
	JZ   done

group:
	// Events 0 and 1 into Y0, Y4, Y8; 2 and 3 into Y1, Y5, Y9; and so on.
	MOVLQSX 0(SI), AX
	SHLQ    $4, AX
	VMOVUPD (R9)(AX*1), X13
	MOVLQSX 4(SI), AX
	SHLQ    $4, AX
	VINSERTF128 $1, (R9)(AX*1), Y13, Y13
	VMOVDDUP    Y13, Y4
	VPERMILPD   $15, Y13, Y8
	VXORPD      negre<>(SB), Y8, Y8
	VMOVSD      0(R8), X0
	VMOVSD      8(R8), X14
	VINSERTF128 $1, X14, Y0, Y0

	MOVLQSX 8(SI), AX
	SHLQ    $4, AX
	VMOVUPD (R9)(AX*1), X13
	MOVLQSX 12(SI), AX
	SHLQ    $4, AX
	VINSERTF128 $1, (R9)(AX*1), Y13, Y13
	VMOVDDUP    Y13, Y5
	VPERMILPD   $15, Y13, Y9
	VXORPD      negre<>(SB), Y9, Y9
	VMOVSD      16(R8), X1
	VMOVSD      24(R8), X14
	VINSERTF128 $1, X14, Y1, Y1

	MOVLQSX 16(SI), AX
	SHLQ    $4, AX
	VMOVUPD (R9)(AX*1), X13
	MOVLQSX 20(SI), AX
	SHLQ    $4, AX
	VINSERTF128 $1, (R9)(AX*1), Y13, Y13
	VMOVDDUP    Y13, Y6
	VPERMILPD   $15, Y13, Y10
	VXORPD      negre<>(SB), Y10, Y10
	VMOVSD      32(R8), X2
	VMOVSD      40(R8), X14
	VINSERTF128 $1, X14, Y2, Y2

	MOVLQSX 24(SI), AX
	SHLQ    $4, AX
	VMOVUPD (R9)(AX*1), X13
	MOVLQSX 28(SI), AX
	SHLQ    $4, AX
	VINSERTF128 $1, (R9)(AX*1), Y13, Y13
	VMOVDDUP    Y13, Y7
	VPERMILPD   $15, Y13, Y11
	VXORPD      negre<>(SB), Y11, Y11
	VMOVSD      48(R8), X3
	VMOVSD      56(R8), X14
	VINSERTF128 $1, X14, Y3, Y3

	MOVQ DI, R10
	MOVQ BX, CX

bin:
	VMOVUPD      (R10), X12
	VADDPD       X0, X12, X12
	VEXTRACTF128 $1, Y0, X13
	VADDPD       X13, X12, X12
	VADDPD       X1, X12, X12
	VEXTRACTF128 $1, Y1, X14
	VADDPD       X14, X12, X12
	VADDPD       X2, X12, X12
	VEXTRACTF128 $1, Y2, X15
	VADDPD       X15, X12, X12
	VADDPD       X3, X12, X12
	VEXTRACTF128 $1, Y3, X13
	VADDPD       X13, X12, X12
	VMOVUPD      X12, (R10)

	VPERMILPD $5, Y0, Y13
	VMULPD    Y8, Y13, Y13
	VMULPD    Y4, Y0, Y0
	VADDPD    Y13, Y0, Y0
	VPERMILPD $5, Y1, Y14
	VMULPD    Y9, Y14, Y14
	VMULPD    Y5, Y1, Y1
	VADDPD    Y14, Y1, Y1
	VPERMILPD $5, Y2, Y15
	VMULPD    Y10, Y15, Y15
	VMULPD    Y6, Y2, Y2
	VADDPD    Y15, Y2, Y2
	VPERMILPD $5, Y3, Y13
	VMULPD    Y11, Y13, Y13
	VMULPD    Y7, Y3, Y3
	VADDPD    Y13, Y3, Y3

	ADDQ $16, R10
	DECQ CX
	JNZ  bin

	ADDQ $32, SI
	ADDQ $64, R8
	DECQ DX
	JNZ  group

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
