//go:build amd64 && !purego

#include "textflag.h"

// The micro-kernels compute one 4-row tile of C = A·B. A's element (r,p)
// is at a + (r·ai + p·ap)·8 and B's row p at b + p·bp·8; each step
// broadcasts one A element per row, loads a contiguous B row, and adds
// the products into accumulators that start at +0. Every lane of every
// accumulator is a different output, summed over p in ascending order with
// a separate multiply and add (never a fused multiply-add), so each output
// is the same float64 sum as the scalar loop. The sums are then stored to
// C's rows (row stride cs) or, when acc is set, added to them.

// func kern4x8(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool)
TEXT ·kern4x8(SB), NOSPLIT, $0-65
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ai+16(FP), R8
	MOVQ ap+24(FP), R10
	MOVQ b+32(FP), DI
	MOVQ bp+40(FP), R11
	SHLQ $3, R8
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JLE   done8

loop8:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R10, SI
	ADDQ         R11, DI
	DECQ         CX
	JNZ          loop8

done8:
	MOVQ c+48(FP), DX
	MOVQ cs+56(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13
	CMPB acc+64(FP), $0
	JEQ  store8
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD (DX)(R12*1), Y2, Y2
	VADDPD 32(DX)(R12*1), Y3, Y3
	VADDPD (DX)(R12*2), Y4, Y4
	VADDPD 32(DX)(R12*2), Y5, Y5
	VADDPD (DX)(R13*1), Y6, Y6
	VADDPD 32(DX)(R13*1), Y7, Y7

store8:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R12*1)
	VMOVUPD Y3, 32(DX)(R12*1)
	VMOVUPD Y4, (DX)(R12*2)
	VMOVUPD Y5, 32(DX)(R12*2)
	VMOVUPD Y6, (DX)(R13*1)
	VMOVUPD Y7, 32(DX)(R13*1)
	VZEROUPPER
	RET

// func kern4x4(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool)
TEXT ·kern4x4(SB), NOSPLIT, $0-65
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ai+16(FP), R8
	MOVQ ap+24(FP), R10
	MOVQ b+32(FP), DI
	MOVQ bp+40(FP), R11
	SHLQ $3, R8
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JLE   done4

loop4:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD (SI)(R8*1), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (SI)(R9*1), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y3, Y3
	ADDQ         R10, SI
	ADDQ         R11, DI
	DECQ         CX
	JNZ          loop4

done4:
	MOVQ c+48(FP), DX
	MOVQ cs+56(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13
	CMPB acc+64(FP), $0
	JEQ  store4
	VADDPD (DX), Y0, Y0
	VADDPD (DX)(R12*1), Y1, Y1
	VADDPD (DX)(R12*2), Y2, Y2
	VADDPD (DX)(R13*1), Y3, Y3

store4:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R12*1)
	VMOVUPD Y2, (DX)(R12*2)
	VMOVUPD Y3, (DX)(R13*1)
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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET

// func kern4x8off(k int, a *float64, lda int, b *float64, off *int, c *float64, ldc int)
//
// kern4x8off is kern4x8 with A's rows lda apart and contiguous, and B's row
// p found through the offset table: it starts at b + off[p]·8. The sums
// are stored to C.
TEXT ·kern4x8off(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), DI
	MOVQ off+32(FP), R11
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JLE   doneoff

loopoff:
	MOVQ         (R11), R12
	VMOVUPD      (DI)(R12*8), Y8
	VMOVUPD      32(DI)(R12*8), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $8, R11
	DECQ         CX
	JNZ          loopoff

doneoff:
	MOVQ    c+40(FP), DX
	MOVQ    ldc+48(FP), R12
	SHLQ    $3, R12
	LEAQ    (R12)(R12*2), R13
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R12*1)
	VMOVUPD Y3, 32(DX)(R12*1)
	VMOVUPD Y4, (DX)(R12*2)
	VMOVUPD Y5, 32(DX)(R12*2)
	VMOVUPD Y6, (DX)(R13*1)
	VMOVUPD Y7, 32(DX)(R13*1)
	VZEROUPPER
	RET

// func kern4x8rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int)
//
// kern4x8rows is kern4x8 for the convolution's weight gradient, with A's
// four rows read straight from the padded image: row r's element j =
// oy·ow + ox is a[dr + oy·lda + ox] for d0 = 0 and d1..d3, and the inner
// index runs over the oh×ow valid outputs only, row by row. B's row j is
// at b + j·bp·8. The sums are stored to C.
TEXT ·kern4x8rows(SB), NOSPLIT, $0-88
	MOVQ oh+0(FP), BX
	MOVQ ow+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ d1+24(FP), R8
	MOVQ d2+32(FP), R9
	MOVQ d3+40(FP), R10
	MOVQ lda+48(FP), R11
	MOVQ b+56(FP), DI
	MOVQ bp+64(FP), R12
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SUBQ DX, R11
	SHLQ $3, R11
	SHLQ $3, R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ BX, BX
	JLE   donerows8
	TESTQ DX, DX
	JLE   donerows8

rows8:
	MOVQ DX, CX

cols8:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R10*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         R12, DI
	DECQ         CX
	JNZ          cols8
	ADDQ         R11, SI
	DECQ         BX
	JNZ          rows8

donerows8:
	MOVQ    c+72(FP), DX
	MOVQ    cs+80(FP), R13
	SHLQ    $3, R13
	LEAQ    (R13)(R13*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R13*1)
	VMOVUPD Y3, 32(DX)(R13*1)
	VMOVUPD Y4, (DX)(R13*2)
	VMOVUPD Y5, 32(DX)(R13*2)
	VMOVUPD Y6, (DX)(AX*1)
	VMOVUPD Y7, 32(DX)(AX*1)
	VZEROUPPER
	RET

// func kern4x4rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int)
//
// kern4x4rows is kern4x8rows for a 4-column tile.
TEXT ·kern4x4rows(SB), NOSPLIT, $0-88
	MOVQ oh+0(FP), BX
	MOVQ ow+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ d1+24(FP), R8
	MOVQ d2+32(FP), R9
	MOVQ d3+40(FP), R10
	MOVQ lda+48(FP), R11
	MOVQ b+56(FP), DI
	MOVQ bp+64(FP), R12
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SUBQ DX, R11
	SHLQ $3, R11
	SHLQ $3, R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ BX, BX
	JLE   donerows4
	TESTQ DX, DX
	JLE   donerows4

rows4:
	MOVQ DX, CX

cols4:
	VMOVUPD      (DI), Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD (SI)(R8*1), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (SI)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (SI)(R10*1), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y3, Y3
	ADDQ         $8, SI
	ADDQ         R12, DI
	DECQ         CX
	JNZ          cols4
	ADDQ         R11, SI
	DECQ         BX
	JNZ          rows4

donerows4:
	MOVQ    c+72(FP), DX
	MOVQ    cs+80(FP), R13
	SHLQ    $3, R13
	LEAQ    (R13)(R13*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R13*1)
	VMOVUPD Y2, (DX)(R13*2)
	VMOVUPD Y3, (DX)(AX*1)
	VZEROUPPER
	RET
