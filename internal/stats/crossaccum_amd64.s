//go:build amd64

#include "textflag.h"

// AVX2/FMA kernels behind the block fold (CovAccumulator.PushBlock).
// Only reached when crossaccum_amd64.go's CPUID probe confirms AVX2+FMA
// and OS YMM state saving; everything else goes through the portable Go
// loops.

// func crossAccumAVX(cross *float64, flat *float64, n, m int)
//
// For each of the n rows (flat, row-major, width m), rank-1 update the
// upper triangle of the m×m cross matrix: cross[j][l] += row[j]*row[l]
// for l >= j. Inner l-loop runs 8 doubles per iteration (two fused
// multiply-adds), then 4, then scalar tail.
TEXT ·crossAccumAVX(SB), NOSPLIT, $0-32
	MOVQ cross+0(FP), DI
	MOVQ flat+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ m+24(FP), DX
	TESTQ CX, CX
	JLE   done
rowloop:
	XORQ R8, R8            // j
jloop:
	CMPQ R8, DX
	JGE  jdone
	VBROADCASTSD (SI)(R8*8), Y0   // row[j] in all lanes
	MOVQ R8, R9
	IMULQ DX, R9
	LEAQ (DI)(R9*8), R10   // &cross[j*m]
	MOVQ R8, R11           // l = j
lloop8:
	MOVQ DX, R12
	SUBQ R11, R12
	CMPQ R12, $8
	JL   lloop4
	VMOVUPD (SI)(R11*8), Y1
	VMOVUPD 32(SI)(R11*8), Y3
	VMOVUPD (R10)(R11*8), Y2
	VMOVUPD 32(R10)(R11*8), Y4
	VFMADD231PD Y0, Y1, Y2
	VFMADD231PD Y0, Y3, Y4
	VMOVUPD Y2, (R10)(R11*8)
	VMOVUPD Y4, 32(R10)(R11*8)
	ADDQ $8, R11
	JMP  lloop8
lloop4:
	CMPQ R12, $4
	JL   lloop1
	VMOVUPD (SI)(R11*8), Y1
	VMOVUPD (R10)(R11*8), Y2
	VFMADD231PD Y0, Y1, Y2
	VMOVUPD Y2, (R10)(R11*8)
	ADDQ $4, R11
lloop1:
	CMPQ R11, DX
	JGE  ldone
	VMOVSD (SI)(R11*8), X1
	VMOVSD (R10)(R11*8), X2
	VFMADD231SD X0, X1, X2
	VMOVSD X2, (R10)(R11*8)
	INCQ R11
	JMP  lloop1
ldone:
	INCQ R8
	JMP  jloop
jdone:
	LEAQ (SI)(DX*8), SI    // next row
	DECQ CX
	JNZ  rowloop
done:
	VZEROUPPER
	RET

// func allFiniteAVX(flat *float64, n int) bool
//
// v*0 != 0 exactly for NaN and ±Inf (0·Inf and 0·NaN are NaN; finite v
// gives ±0, which compares equal to +0). NEQ_UQ (imm 4) is true for
// unordered, so NaN lanes light up the movmsk.
TEXT ·allFiniteAVX(SB), NOSPLIT, $0-17
	MOVQ flat+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX            // index
scan8:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $8
	JL   scan4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VCMPPD $4, Y0, Y1, Y3
	VCMPPD $4, Y0, Y2, Y4
	VORPD Y4, Y3, Y3
	VMOVMSKPD Y3, BX
	TESTQ BX, BX
	JNZ  bad
	ADDQ $8, AX
	JMP  scan8
scan4:
	CMPQ DX, $4
	JL   scan1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y0, Y1, Y1
	VCMPPD $4, Y0, Y1, Y3
	VMOVMSKPD Y3, BX
	TESTQ BX, BX
	JNZ  bad
	ADDQ $4, AX
scan1:
	CMPQ AX, CX
	JGE  ok
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VUCOMISD X0, X1
	JP   bad               // unordered => NaN => non-finite
	INCQ AX
	JMP  scan1
ok:
	VZEROUPPER
	MOVB $1, ret+16(FP)
	RET
bad:
	VZEROUPPER
	MOVB $0, ret+16(FP)
	RET

// func cpuidRaw(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET
