//go:build amd64

#include "textflag.h"

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// MAC3 accumulates one k step of three a rows into the 16 x 3 tile:
// for each a row c, broadcast its k-th value and add value*lane to the
// four accumulators of row c, the lanes being the 16 packed b rows at
// (AX). Multiply and add are separate instructions so every lane rounds
// exactly like the scalar s += a*b.
#define MAC3 \
	VBROADCASTSD (BX), Y12          \
	VMULPD       (AX), Y12, Y13     \
	VADDPD       Y13, Y0, Y0        \
	VMULPD       32(AX), Y12, Y14   \
	VADDPD       Y14, Y1, Y1        \
	VMULPD       64(AX), Y12, Y15   \
	VADDPD       Y15, Y2, Y2        \
	VMULPD       96(AX), Y12, Y13   \
	VADDPD       Y13, Y3, Y3        \
	VBROADCASTSD (BX)(R11*1), Y12   \
	VMULPD       (AX), Y12, Y14     \
	VADDPD       Y14, Y4, Y4        \
	VMULPD       32(AX), Y12, Y15   \
	VADDPD       Y15, Y5, Y5        \
	VMULPD       64(AX), Y12, Y13   \
	VADDPD       Y13, Y6, Y6        \
	VMULPD       96(AX), Y12, Y14   \
	VADDPD       Y14, Y7, Y7        \
	VBROADCASTSD (BX)(R11*2), Y12   \
	VMULPD       (AX), Y12, Y15     \
	VADDPD       Y15, Y8, Y8        \
	VMULPD       32(AX), Y12, Y13   \
	VADDPD       Y13, Y9, Y9        \
	VMULPD       64(AX), Y12, Y14   \
	VADDPD       Y14, Y10, Y10      \
	VMULPD       96(AX), Y12, Y15   \
	VADDPD       Y15, Y11, Y11

// MAC1 is MAC3 for one a row: the four accumulators Y0-Y3.
#define MAC1 \
	VBROADCASTSD (BX), Y12          \
	VMULPD       (AX), Y12, Y13     \
	VADDPD       Y13, Y0, Y0        \
	VMULPD       32(AX), Y12, Y14   \
	VADDPD       Y14, Y1, Y1        \
	VMULPD       64(AX), Y12, Y15   \
	VADDPD       Y15, Y2, Y2        \
	VMULPD       96(AX), Y12, Y13   \
	VADDPD       Y13, Y3, Y3

// func matMulWS16(dst []float64, ldd int, pack, a []float64, k, m, blocks int)
//
// The lanes hold 16 rows of b (one packed block) and MAC3's three
// broadcasts are three rows of a, so the accumulators of a row are 16
// adjacent elements of its dst row and are stored in place.
//
// Register use: SI packed block, DI dst block column, R8 dst row stride
// in bytes, R9 a, DX a row cursor, R12 dst row cursor, R10 rows left,
// CX blocks left, R11 a row stride in bytes, AX/BX inner cursors, R13
// k counter.
TEXT ·matMulWS16(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8
	MOVQ pack_base+32(FP), SI
	MOVQ a_base+56(FP), R9
	MOVQ k+80(FP), R11
	SHLQ $3, R11
	MOVQ blocks+96(FP), CX

block:
	MOVQ m+88(FP), R10
	MOVQ R9, DX
	MOVQ DI, R12

rows3:
	CMPQ R10, $3
	JLT  rows1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R11, R13
	SHRQ $3, R13

wk3:
	MAC3
	ADDQ $128, AX
	ADDQ $8, BX
	DECQ R13
	JNZ  wk3

	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    R8, R12
	VMOVUPD Y4, 0(R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, 64(R12)
	VMOVUPD Y7, 96(R12)
	ADDQ    R8, R12
	VMOVUPD Y8, 0(R12)
	VMOVUPD Y9, 32(R12)
	VMOVUPD Y10, 64(R12)
	VMOVUPD Y11, 96(R12)
	ADDQ    R8, R12
	LEAQ    (DX)(R11*2), DX
	ADDQ    R11, DX
	SUBQ    $3, R10
	JMP     rows3

rows1:
	TESTQ R10, R10
	JZ    nextblock
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R11, R13
	SHRQ $3, R13

wk1:
	MAC1
	ADDQ $128, AX
	ADDQ $8, BX
	DECQ R13
	JNZ  wk1

	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    R8, R12
	ADDQ    R11, DX
	DECQ    R10
	JMP     rows1

nextblock:
	MOVQ R11, R13
	SHLQ $4, R13
	ADDQ R13, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  block

	VZEROUPPER
	RET
