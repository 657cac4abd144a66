// AVX kernels for the one dense training kernel (kernel.go) and Adam.Step
// (adam.go). Each SIMD lane computes one output with exactly the scalar
// loop's operation sequence: a rounded multiply, then a rounded add, never
// fused. A fused multiply-add rounds once where the scalar loop rounds twice,
// so it would change results and the goldens built on them; make seam-check
// rejects one in this file. See kernel_amd64.go for the Go side and the
// dispatch.

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

// func denseRow1Asm(y, b, x, wt *float64, in, out int)
//
// For every output j < out:
//
//	y[j] = b[j] + ((+0 + x[0]·wt[0·out+j]) + x[1]·wt[1·out+j]) + …
//
// k ascending; a nil b skips the bias. Output columns are tiled 16/4/1 wide,
// each tile's accumulators in registers across the whole k reduction. in
// must be positive.
TEXT ·denseRow1Asm(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ b+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ wt+24(FP), DX
	MOVQ in+32(FP), R12
	MOVQ out+40(FP), R8
	SHLQ $3, R8              // wt row stride in bytes
	LEAQ (SI)(R12*8), CX     // end of x: the k loop's bound
	XORQ R9, R9              // j: current output offset in bytes

r1top:
	MOVQ R8, AX
	SUBQ R9, AX              // output bytes remaining
	CMPQ AX, $128
	JGE  r1block16
	CMPQ AX, $32
	JGE  r1block4
	CMPQ AX, $8
	JGE  r1block1
	VZEROUPPER
	RET

// 16 outputs: Y0..Y3.
r1block16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	LEAQ   (DX)(R9*1), R11

r1k16:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R10
	ADDQ         R8, R11
	CMPQ         R10, CX
	JNE          r1k16

	TESTQ  BX, BX
	JZ     r1store16
	VADDPD (BX)(R9*1), Y0, Y0
	VADDPD 32(BX)(R9*1), Y1, Y1
	VADDPD 64(BX)(R9*1), Y2, Y2
	VADDPD 96(BX)(R9*1), Y3, Y3

r1store16:
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	ADDQ    $128, R9
	JMP     r1top

// 4 outputs: Y0.
r1block4:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	LEAQ   (DX)(R9*1), R11

r1k4:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R10
	ADDQ         R8, R11
	CMPQ         R10, CX
	JNE          r1k4

	TESTQ  BX, BX
	JZ     r1store4
	VADDPD (BX)(R9*1), Y0, Y0

r1store4:
	VMOVUPD Y0, (DI)(R9*1)
	ADDQ    $32, R9
	JMP     r1top

// 1 output: scalar, X0.
r1block1:
	VXORPD X0, X0, X0
	MOVQ   SI, R10
	LEAQ   (DX)(R9*1), R11

r1k1:
	VMOVSD (R10), X4
	VMULSD (R11), X4, X5
	VADDSD X5, X0, X0
	ADDQ   $8, R10
	ADDQ   R8, R11
	CMPQ   R10, CX
	JNE    r1k1

	TESTQ  BX, BX
	JZ     r1store1
	VADDSD (BX)(R9*1), X0, X0

r1store1:
	VMOVSD X0, (DI)(R9*1)
	ADDQ   $8, R9
	JMP    r1top

// func gradRowsAsm(gw, dy, x *float64, n, in, out int)
//
// For every output o < out and input i < in:
//
//	gw[o·in+i] = ((gw[o·in+i] + dy[0·out+o]·x[0·in+i]) + dy[1·out+o]·x[1·in+i]) + …
//
// r ascending over the n rows. A tile of gw stays in registers while all n
// rows stream through it. The first in&^15 inputs of each gw row run 16 wide
// (four chains); the rest run 4 then 1 wide over four gw rows at once, so
// they too keep four independent chains, and over one row for the last
// out mod 4 outputs. n must be positive.
TEXT ·gradRowsAsm(SB), NOSPLIT, $0-48
	MOVQ  gw+0(FP), DI
	MOVQ  dy+8(FP), SI
	MOVQ  x+16(FP), DX
	MOVQ  n+24(FP), CX
	MOVQ  in+32(FP), R12
	MOVQ  out+40(FP), R8
	SHLQ  $3, R12            // x and gw row stride in bytes
	SHLQ  $3, R8             // dy row stride in bytes
	IMULQ R8, CX             // n dy rows in bytes
	MOVQ  R12, BX
	ANDQ  $-128, BX          // bytes of each gw row the 16-wide tiles cover
	TESTQ BX, BX
	JZ    gnarrow
	LEAQ  (SI)(R8*1), AX     // end of dy row 0: the o loop's bound

// 16 inputs × 1 row: Y0..Y3. DI is gw row o, SI is &dy[0][o].
gwrow:
	XORQ R9, R9              // i: current input offset in bytes

gw16:
	VMOVUPD (DI)(R9*1), Y0
	VMOVUPD 32(DI)(R9*1), Y1
	VMOVUPD 64(DI)(R9*1), Y2
	VMOVUPD 96(DI)(R9*1), Y3
	MOVQ    SI, R10          // &dy[r][o]
	LEAQ    (DX)(R9*1), R11  // &x[r][i]
	LEAQ    (SI)(CX*1), R13  // &dy[n][o]: the r loop's bound

gw16r:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R8, R10
	ADDQ         R12, R11
	CMPQ         R10, R13
	JNE          gw16r

	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	ADDQ    $128, R9
	CMPQ    R9, BX
	JNE     gw16
	ADDQ    R12, DI          // next gw row
	ADDQ    $8, SI           // next dy column
	CMPQ    SI, AX
	JNE     gwrow

// The inputs from in&^15 on, four gw rows at a time: DI is gw row o, SI is
// &dy[0][o], BX the tile's &gw[o][i], AX three gw row strides.
gnarrow:
	CMPQ BX, R12
	JEQ  gdone
	MOVQ gw+0(FP), DI
	MOVQ dy+8(FP), SI
	LEAQ (R12)(R12*2), AX
	MOVQ R8, R15
	ANDQ $-32, R15
	ADDQ SI, R15             // &dy[0][out&^3]: the four-row loop's bound

gquad:
	CMPQ SI, R15
	JEQ  gsingle
	MOVQ R12, R9
	ANDQ $-128, R9

gquadtile:
	MOVQ R12, R13
	SUBQ R9, R13             // input bytes remaining in these gw rows
	CMPQ R13, $32
	JGE  gq4
	CMPQ R13, $8
	JGE  gq1
	LEAQ (DI)(R12*4), DI     // next four gw rows
	ADDQ $32, SI
	JMP  gquad

// 4 inputs × 4 rows: Y0..Y3, one per gw row.
gq4:
	LEAQ    (DI)(R9*1), BX
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R12*1), Y1
	VMOVUPD (BX)(R12*2), Y2
	VMOVUPD (BX)(AX*1), Y3
	MOVQ    SI, R10
	LEAQ    (DX)(R9*1), R11
	LEAQ    (SI)(CX*1), R13

gq4r:
	VMOVUPD      (R11), Y4
	VBROADCASTSD (R10), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD 8(R10), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD 16(R10), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD 24(R10), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R8, R10
	ADDQ         R12, R11
	CMPQ         R10, R13
	JNE          gq4r

	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R12*1)
	VMOVUPD Y2, (BX)(R12*2)
	VMOVUPD Y3, (BX)(AX*1)
	ADDQ    $32, R9
	JMP     gquadtile

// 1 input × 4 rows: scalar, X0..X3.
gq1:
	LEAQ   (DI)(R9*1), BX
	VMOVSD (BX), X0
	VMOVSD (BX)(R12*1), X1
	VMOVSD (BX)(R12*2), X2
	VMOVSD (BX)(AX*1), X3
	MOVQ   SI, R10
	LEAQ   (DX)(R9*1), R11
	LEAQ   (SI)(CX*1), R13

gq1r:
	VMOVSD (R11), X4
	VMULSD (R10), X4, X5
	VADDSD X5, X0, X0
	VMULSD 8(R10), X4, X6
	VADDSD X6, X1, X1
	VMULSD 16(R10), X4, X7
	VADDSD X7, X2, X2
	VMULSD 24(R10), X4, X8
	VADDSD X8, X3, X3
	ADDQ   R8, R10
	ADDQ   R12, R11
	CMPQ   R10, R13
	JNE    gq1r

	VMOVSD X0, (BX)
	VMOVSD X1, (BX)(R12*1)
	VMOVSD X2, (BX)(R12*2)
	VMOVSD X3, (BX)(AX*1)
	ADDQ   $8, R9
	JMP    gquadtile

// The last out mod 4 gw rows, one at a time.
gsingle:
	MOVQ dy+8(FP), R15
	ADDQ R8, R15             // end of dy row 0

gsrow:
	CMPQ SI, R15
	JEQ  gdone
	MOVQ R12, R9
	ANDQ $-128, R9

gstile:
	MOVQ R12, R13
	SUBQ R9, R13
	CMPQ R13, $32
	JGE  gs4
	CMPQ R13, $8
	JGE  gs1
	ADDQ R12, DI
	ADDQ $8, SI
	JMP  gsrow

// 4 inputs × 1 row: Y0.
gs4:
	VMOVUPD (DI)(R9*1), Y0
	MOVQ    SI, R10
	LEAQ    (DX)(R9*1), R11
	LEAQ    (SI)(CX*1), R13

gs4r:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R8, R10
	ADDQ         R12, R11
	CMPQ         R10, R13
	JNE          gs4r

	VMOVUPD Y0, (DI)(R9*1)
	ADDQ    $32, R9
	JMP     gstile

// 1 input × 1 row: scalar, X0.
gs1:
	VMOVSD (DI)(R9*1), X0
	MOVQ   SI, R10
	LEAQ   (DX)(R9*1), R11
	LEAQ   (SI)(CX*1), R13

gs1r:
	VMOVSD (R10), X4
	VMULSD (R11), X4, X5
	VADDSD X5, X0, X0
	ADDQ   R8, R10
	ADDQ   R12, R11
	CMPQ   R10, R13
	JNE    gs1r

	VMOVSD X0, (DI)(R9*1)
	ADDQ   $8, R9
	JMP    gstile

gdone:
	VZEROUPPER
	RET

// func adamAsm(p, gr, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps float64)
//
// For i < n, four elements per ymm, in Adam.Step's Go order:
//
//	m[i] = b1·m[i] + ob1·gr[i]
//	v[i] = b2·v[i] + (ob2·gr[i])·gr[i]
//	p[i] = p[i] − (lr·(m[i]/c1)) / (√(v[i]/c2) + eps)
//
// Multiply, add, subtract, divide and square root are each correctly
// rounded, so every lane is the Go loop's bits. n must be a positive
// multiple of four.
TEXT ·adamAsm(SB), NOSPLIT, $0-104
	MOVQ         p+0(FP), DI
	MOVQ         gr+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), R8
	MOVQ         n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y0
	VBROADCASTSD ob1+48(FP), Y1
	VBROADCASTSD b2+56(FP), Y2
	VBROADCASTSD ob2+64(FP), Y3
	VBROADCASTSD c1+72(FP), Y4
	VBROADCASTSD c2+80(FP), Y5
	VBROADCASTSD lr+88(FP), Y6
	VBROADCASTSD eps+96(FP), Y7
	SHLQ         $3, CX      // n in bytes
	XORQ         AX, AX

adamloop:
	VMOVUPD (SI)(AX*1), Y8   // gr
	VMULPD  (DX)(AX*1), Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9      // m = b1·m + ob1·g
	VMOVUPD Y9, (DX)(AX*1)
	VMULPD  (R8)(AX*1), Y2, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10    // v = b2·v + (ob2·g)·g
	VMOVUPD Y10, (R8)(AX*1)
	VDIVPD  Y4, Y9, Y9       // m/c1
	VMULPD  Y9, Y6, Y9       // lr·(m/c1)
	VDIVPD  Y5, Y10, Y10     // v/c2
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10     // √(v/c2) + eps
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI)(AX*1), Y11
	VSUBPD  Y9, Y11, Y11     // p − step
	VMOVUPD Y11, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     adamloop

	VZEROUPPER
	RET
