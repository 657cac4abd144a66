// AVX kernels for the one dense training kernel (kernel.go). Each SIMD lane
// computes one output with exactly the scalar loop's operation sequence: a
// rounded multiply, then a rounded add, never fused. A fused multiply-add
// rounds once where the scalar loop rounds twice, so it would change results
// and the goldens built on them; make seam-check rejects one in this file.
// See kernel_amd64.go for the Go side and the dispatch.

#include "textflag.h"

// func denseRows4Asm(y, b, x, wt *float64, in, out int)
//
// For the four rows r of x (4×in, row-major) and every output j < out:
//
//	y[r·out+j] = b[j] + ((+0 + x[r·in+0]·wt[0·out+j]) + x[r·in+1]·wt[1·out+j]) + …
//
// k ascending, where wt is the layer's weights transposed (in×out). Output
// columns are tiled 8/4/2/1 wide; a tile's four rows of accumulators stay in
// registers across the whole k reduction. in must be positive.
TEXT ·denseRows4Asm(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ b+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ wt+24(FP), DX
	MOVQ in+32(FP), R12
	MOVQ out+40(FP), R8
	SHLQ $3, R8              // wt and y row stride in bytes
	SHLQ $3, R12             // x row stride in bytes
	LEAQ (SI)(R12*1), CX     // end of x row 0: the k loop's bound
	LEAQ (R12)(R12*2), R13   // three x row strides
	XORQ R9, R9              // j: current output offset in bytes

jtop:
	MOVQ R8, AX
	SUBQ R9, AX              // output bytes remaining
	CMPQ AX, $64
	JGE  jblock8
	CMPQ AX, $32
	JGE  jblock4
	CMPQ AX, $16
	JGE  jblock2
	CMPQ AX, $8
	JGE  jblock1
	VZEROUPPER
	RET

// 8 outputs × 4 rows: Y0..Y7 accumulate, row r in Y(2r) and Y(2r+1).
jblock8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R10
	LEAQ (DX)(R9*1), R11

kloop8:
	VMOVUPD      (R11), Y8
	VMOVUPD      32(R11), Y9
	VBROADCASTSD (R10), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (R10)(R12*1), Y11
	VMULPD       Y8, Y11, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       Y9, Y11, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD (R10)(R12*2), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD (R10)(R13*1), Y11
	VMULPD       Y8, Y11, Y12
	VADDPD       Y12, Y6, Y6
	VMULPD       Y9, Y11, Y13
	VADDPD       Y13, Y7, Y7
	ADDQ         $8, R10
	ADDQ         R8, R11
	CMPQ         R10, CX
	JNE          kloop8

	// Bias last, then store the four rows.
	VMOVUPD (BX)(R9*1), Y8
	VMOVUPD 32(BX)(R9*1), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7
	LEAQ    (DI)(R9*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R8*1)
	VMOVUPD Y3, 32(AX)(R8*1)
	LEAQ    (AX)(R8*2), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)
	ADDQ    $64, R9
	JMP     jtop

// 4 outputs × 4 rows: Y0..Y3, one per row.
jblock4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	LEAQ (DX)(R9*1), R11

kloop4:
	VMOVUPD      (R11), Y8
	VBROADCASTSD (R10), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD (R10)(R12*1), Y11
	VMULPD       Y8, Y11, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (R10)(R12*2), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y2, Y2
	VBROADCASTSD (R10)(R13*1), Y11
	VMULPD       Y8, Y11, Y13
	VADDPD       Y13, Y3, Y3
	ADDQ         $8, R10
	ADDQ         R8, R11
	CMPQ         R10, CX
	JNE          kloop4

	VMOVUPD (BX)(R9*1), Y8
	VADDPD  Y8, Y0, Y0
	VADDPD  Y8, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y8, Y3, Y3
	LEAQ    (DI)(R9*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R8*1)
	LEAQ    (AX)(R8*2), AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	ADDQ    $32, R9
	JMP     jtop

// 2 outputs × 4 rows: X0..X3.
jblock2:
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ SI, R10
	LEAQ (DX)(R9*1), R11

kloop2:
	VMOVUPD  (R11), X8
	VMOVDDUP (R10), X10
	VMULPD   X8, X10, X12
	VADDPD   X12, X0, X0
	VMOVDDUP (R10)(R12*1), X11
	VMULPD   X8, X11, X13
	VADDPD   X13, X1, X1
	VMOVDDUP (R10)(R12*2), X10
	VMULPD   X8, X10, X12
	VADDPD   X12, X2, X2
	VMOVDDUP (R10)(R13*1), X11
	VMULPD   X8, X11, X13
	VADDPD   X13, X3, X3
	ADDQ     $8, R10
	ADDQ     R8, R11
	CMPQ     R10, CX
	JNE      kloop2

	VMOVUPD (BX)(R9*1), X8
	VADDPD  X8, X0, X0
	VADDPD  X8, X1, X1
	VADDPD  X8, X2, X2
	VADDPD  X8, X3, X3
	LEAQ    (DI)(R9*1), AX
	VMOVUPD X0, (AX)
	VMOVUPD X1, (AX)(R8*1)
	LEAQ    (AX)(R8*2), AX
	VMOVUPD X2, (AX)
	VMOVUPD X3, (AX)(R8*1)
	ADDQ    $16, R9
	JMP     jtop

// 1 output × 4 rows: scalar, X0..X3.
jblock1:
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ SI, R10
	LEAQ (DX)(R9*1), R11

kloop1:
	VMOVSD (R11), X8
	VMULSD (R10), X8, X12
	VADDSD X12, X0, X0
	VMULSD (R10)(R12*1), X8, X13
	VADDSD X13, X1, X1
	VMULSD (R10)(R12*2), X8, X12
	VADDSD X12, X2, X2
	VMULSD (R10)(R13*1), X8, X13
	VADDSD X13, X3, X3
	ADDQ   $8, R10
	ADDQ   R8, R11
	CMPQ   R10, CX
	JNE    kloop1

	VMOVSD (BX)(R9*1), X8
	VADDSD X8, X0, X0
	VADDSD X8, X1, X1
	VADDSD X8, X2, X2
	VADDSD X8, X3, X3
	LEAQ   (DI)(R9*1), AX
	VMOVSD X0, (AX)
	VMOVSD X1, (AX)(R8*1)
	LEAQ   (AX)(R8*2), AX
	VMOVSD X2, (AX)
	VMOVSD X3, (AX)(R8*1)
	ADDQ   $8, R9
	JMP    jtop

// func axpy4Asm(y, v0, v1, v2, v3 *float64, n int, a0, a1, a2, a3 float64)
//
// y[i] = (((y[i] + a0·v0[i]) + a1·v1[i]) + a2·v2[i]) + a3·v3[i] for i < n:
// four elements per ymm, then a scalar tail with the same sequence.
TEXT ·axpy4Asm(SB), NOSPLIT, $0-80
	MOVQ         y+0(FP), DI
	MOVQ         v0+8(FP), SI
	MOVQ         v1+16(FP), R8
	MOVQ         v2+24(FP), R9
	MOVQ         v3+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	SHLQ         $3, CX     // n in bytes
	MOVQ         CX, DX
	ANDQ         $-32, DX   // bytes covered by whole ymm steps
	XORQ         AX, AX
	TESTQ        DX, DX
	JZ           tail

loop4:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JNE     loop4

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (DI)(AX*1), X4
	VMULSD (SI)(AX*1), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R8)(AX*1), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*1), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*1), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    tail

done:
	VZEROUPPER
	RET
