// AVX2 tanh for the training kernel, four doubles per iteration, lane-exact
// to mathx.Tanh: every lane runs mathx.Tanh's operation sequence, so the
// result is the same bits as the scalar call. See tanhSIMD in
// kernel_amd64.go for the dispatch and the tail; the length passed here must
// be a positive multiple of four.
//
// mathx.Tanh has three regimes, taken in the scalar switch's order of
// precedence (z = |x|):
//
//	z < 0.625:       x + x·s·P(s)/Q(s), s = x·x    (rational; multiply, then add)
//	z ≥ 0.625:       ±(1 − 2/(Exp(2z) + 1))        (sign restored by XOR)
//	z > 0.5·MAXLOG:  ±1
//	x == 0:          x                              (keeps −0)
//
// Each group of four lanes tests its z ≥ 0.625 mask once, before any regime
// work (VCMPPD, VMOVMSKPD). When every lane takes the Exp regime the rational
// block is skipped; when none does, the Exp block and its blends are. A mixed
// group computes both and blends them by mask; lanes outside a regime compute
// garbage there, which the blends discard. Either way each lane runs exactly
// mathx.Tanh's sequence for its own regime, so skipping changes no bit, only
// the time. NaN fails both ordered compares and takes the rational regime,
// which propagates it quieted, as the scalar code does.
//
// Exp(2z) is mathx.Exp's sequence, and it fuses exactly where mathx.Exp
// calls math.FMA (and Go's amd64 math.Exp fuses on an FMA host): the two
// VFNMADD231PD of the reduction, the VFMADD213PD Horner chain and the final
// VFMADD213PD +1; every other multiply and add rounds on its own. In the
// Exp regime 2z ≤ MAXLOG, so k = round(2z·log2e) ∈ [2, 127]: VROUNDPD $0
// stands in for CVTSD2SL, and Exp's overflow and subnormal branches cannot
// be taken. 2^k is built without a float→int round trip: k is integral, so
// k + 2^52 holds k in the low mantissa bits, the shift by 52 moves it into
// the exponent field, and adding the bits of 1.0 makes the biased exponent
// k + 1023.

#include "textflag.h"

#define C4(off, bits) \
	DATA ·tanhConsts+(off+0)(SB)/8, bits; \
	DATA ·tanhConsts+(off+8)(SB)/8, bits; \
	DATA ·tanhConsts+(off+16)(SB)/8, bits; \
	DATA ·tanhConsts+(off+24)(SB)/8, bits

C4(0, $0x7FFFFFFFFFFFFFFF)   // |·| mask
C4(32, $0x3FF71547652B82FE)  // log2e
C4(64, $0x3FE62E42FEFA3000)  // ln2, upper half
C4(96, $0x3D53DE6AF278ECE6)  // ln2, lower half
C4(128, $0x3FB0000000000000) // 1/16
C4(160, $0x3EFA01A01A01A01A) // 1/8!
C4(192, $0x3F2A01A01A01A01A) // 1/7!
C4(224, $0x3F56C16C16C16C17) // 1/6!
C4(256, $0x3F81111111111111) // 1/5!
C4(288, $0x3FA5555555555555) // 1/4!
C4(320, $0x3FC5555555555555) // 1/3!
C4(352, $0x3FE0000000000000) // 1/2
C4(384, $0x3FF0000000000000) // 1
C4(416, $0x4000000000000000) // 2
C4(448, $0x4330000000000000) // 2^52
C4(480, $0xBFEEDC5BAAFD6F4B) // tanhP[0]
C4(512, $0xC058D26A0E26682D) // tanhP[1]
C4(544, $0xC0993AC030580563) // tanhP[2]
C4(576, $0x405C33F28A581B86) // tanhQ[0]
C4(608, $0x40A176FA0E5535FA) // tanhQ[1]
C4(640, $0x40B2EC102442040C) // tanhQ[2]
C4(672, $0x3FE4000000000000) // 0.625
C4(704, $0x404601E678FC457B) // 0.5·MAXLOG
GLOBL ·tanhConsts(SB), RODATA|NOPTR, $736

// func tanhAsm(p *float64, n int)
TEXT ·tanhAsm(SB), NOSPLIT, $0-16
	MOVQ    p+0(FP), DI
	MOVQ    n+8(FP), CX
	LEAQ    ·tanhConsts(SB), R8
	VMOVUPD 0(R8), Y15   // |·| mask, live across the loop
	VXORPD  Y14, Y14, Y14 // +0, live across the loop

loop:
	VMOVUPD   (DI), Y0                 // x
	VANDPD    Y15, Y0, Y1              // z = |x|
	VANDNPD   Y0, Y15, Y9              // sign bit of x
	VCMPPD    $0x1D, 672(R8), Y1, Y10 // z ≥ 0.625, GE_OQ: false for NaN
	VMOVMSKPD Y10, AX
	CMPL      AX, $15
	JEQ       exp                      // every lane takes the Exp regime

	// Rational regime: x + ((x·s)·p)/q.
	VMULPD Y0, Y0, Y2       // s = x·x
	VMULPD 480(R8), Y2, Y3  // p = P0·s
	VADDPD 512(R8), Y3, Y3  //   + P1
	VMULPD Y2, Y3, Y3       //   ·s
	VADDPD 544(R8), Y3, Y3  //   + P2
	VADDPD 576(R8), Y2, Y4  // q = s + Q0
	VMULPD Y2, Y4, Y4       //   ·s
	VADDPD 608(R8), Y4, Y4  //   + Q1
	VMULPD Y2, Y4, Y4       //   ·s
	VADDPD 640(R8), Y4, Y4  //   + Q2
	VMULPD Y2, Y0, Y5       // x·s
	VMULPD Y3, Y5, Y5       //   ·p
	VDIVPD Y4, Y5, Y5       //   /q
	VADDPD Y5, Y0, Y5       // t = x + …

	// x == 0 takes x.
	VCMPPD    $0, Y14, Y0, Y11 // EQ_OQ
	VBLENDVPD Y11, Y0, Y5, Y5
	TESTL     AX, AX
	JZ        store            // no lane takes the Exp regime

exp:
	// Exp(y), y = 2z: k = round(y·log2e), r = (y − k·ln2hi − k·ln2lo)/16.
	VADDPD       Y1, Y1, Y6
	VMULPD       32(R8), Y6, Y7
	VROUNDPD     $0, Y7, Y7
	VFNMADD231PD 64(R8), Y7, Y6
	VFNMADD231PD 96(R8), Y7, Y6
	VMULPD       128(R8), Y6, Y6

	// p = 1 + r·(1/2 + r·(… + r/8!)), Horner, fused.
	VMOVUPD     160(R8), Y8
	VFMADD213PD 192(R8), Y6, Y8
	VFMADD213PD 224(R8), Y6, Y8
	VFMADD213PD 256(R8), Y6, Y8
	VFMADD213PD 288(R8), Y6, Y8
	VFMADD213PD 320(R8), Y6, Y8
	VFMADD213PD 352(R8), Y6, Y8
	VFMADD213PD 384(R8), Y6, Y8

	// e = r·p, then e ← e·(e + 2) three times and e ← (e + 2)·e + 1 fused.
	VMULPD      Y8, Y6, Y6
	VADDPD      416(R8), Y6, Y8
	VMULPD      Y8, Y6, Y6
	VADDPD      416(R8), Y6, Y8
	VMULPD      Y8, Y6, Y6
	VADDPD      416(R8), Y6, Y8
	VMULPD      Y8, Y6, Y6
	VADDPD      416(R8), Y6, Y8
	VFMADD213PD 384(R8), Y8, Y6

	// s = e·2^k, 2^k = (k + 2^52) << 52 + bits(1.0).
	VADDPD 448(R8), Y7, Y7
	VPSLLQ $52, Y7, Y7
	VPADDQ 384(R8), Y7, Y7
	VMULPD Y7, Y6, Y6

	// 1 − 2/(s + 1), with x's sign.
	VADDPD  384(R8), Y6, Y6
	VMOVUPD 416(R8), Y7
	VDIVPD  Y6, Y7, Y7
	VMOVUPD 384(R8), Y6
	VSUBPD  Y7, Y6, Y6
	VXORPD  Y9, Y6, Y6

	// Blend: z ≥ 0.625 takes the Exp regime, z > 0.5·MAXLOG takes ±1.
	VBLENDVPD Y10, Y6, Y5, Y5
	VORPD     384(R8), Y9, Y6
	VCMPPD    $0x1E, 704(R8), Y1, Y10 // GT_OQ: false for NaN
	VBLENDVPD Y10, Y6, Y5, Y5

store:
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop

	VZEROUPPER
	RET
