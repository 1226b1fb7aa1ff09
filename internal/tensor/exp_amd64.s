//go:build amd64

#include "textflag.h"

// The constants of math.archExp (src/math/exp_amd64.s), each repeated
// across the four lanes of a 256-bit operand, plus the open range
// (-708, 709) whose lanes take the kernel: inside it, archExp's
// exponent n satisfies 2 <= n+1023 <= 2046, so it never branches to its
// overflow or denormal tails.
#define CONST4(off, v) \
	DATA expconst<>+(off)(SB)/8, v    \
	DATA expconst<>+(off+8)(SB)/8, v  \
	DATA expconst<>+(off+16)(SB)/8, v \
	DATA expconst<>+(off+24)(SB)/8, v

CONST4(0, $1.4426950408889634073599246810018920)          // LOG2E
CONST4(32, $0.69314718055966295651160180568695068359375)  // LN2U
CONST4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
CONST4(96, $0.0625)
CONST4(128, $2.4801587301587301587e-5)
CONST4(160, $1.9841269841269841270e-4)
CONST4(192, $1.3888888888888888889e-3)
CONST4(224, $8.3333333333333333333e-3)
CONST4(256, $4.1666666666666666667e-2)
CONST4(288, $1.6666666666666666667e-1)
CONST4(320, $0.5)
CONST4(352, $1.0)
CONST4(384, $2.0)
CONST4(416, $-708.0)
CONST4(448, $709.0)
DATA expconst<>+480(SB)/4, $1023
DATA expconst<>+484(SB)/4, $1023
DATA expconst<>+488(SB)/4, $1023
DATA expconst<>+492(SB)/4, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $496

// func expFMA(dst, src []float64) int
//
// Four lanes at a time, each lane runs the instruction sequence of
// archExp's FMA branch on its own value: the same rounding of x·LOG2E
// to the exponent n, the same two fused reduction steps, the same
// Horner chain and squaring steps, the same 2^n built from n+1023.
// A group is range-checked before anything is stored, so dst may alias
// src. Register use: SI src, DI dst, AX index, CX values left, Y7-Y15
// constants, Y0-Y2 the lanes in flight.
TEXT ·expFMA(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	VMOVUPD expconst<>+128(SB), Y7
	VMOVUPD expconst<>+96(SB), Y8
	VMOVUPD expconst<>+64(SB), Y9
	VMOVUPD expconst<>+32(SB), Y10
	VMOVUPD expconst<>+0(SB), Y11
	VMOVUPD expconst<>+448(SB), Y12
	VMOVUPD expconst<>+416(SB), Y13
	VMOVUPD expconst<>+352(SB), Y14
	VMOVUPD expconst<>+384(SB), Y15

loop:
	CMPQ CX, $4
	JLT  done
	VMOVUPD (SI)(AX*8), Y0
	// Every lane inside (-708, 709)? Ordered compares: NaN fails both.
	VCMPPD    $0x1e, Y13, Y0, Y1 // x > -708
	VCMPPD    $0x11, Y12, Y0, Y2 // x < 709
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	// n = round(x·LOG2E); x = (x - n·LN2U - n·LN2L) / 16.
	VMULPD       Y11, Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD Y10, Y1, Y0
	VFNMADD231PD Y9, Y1, Y0
	VMULPD       Y8, Y0, Y0

	// Taylor series: p = ((c7·x + c6)·x + ... + 0.5)·x + 1.
	VMOVAPD     Y7, Y1
	VFMADD213PD expconst<>+160(SB), Y0, Y1
	VFMADD213PD expconst<>+192(SB), Y0, Y1
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD Y14, Y0, Y1

	// x = x·p, then x = (x+2)·x three times and x = (x+2)·x + 1.
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VFMADD213PD Y14, Y1, Y0

	// Scale by 2^n: the bits (n+1023) << 52.
	VPADDD    expconst<>+480(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	SUBQ      $4, CX
	JMP       loop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
