// AVX2+FMA vectorized tanh for the GEMM batch mode, four doubles per
// iteration. See vtanh in fma_amd64.go for the dispatch and the tail
// handling; the length passed here must be a positive multiple of four.
//
// Per lane, for a = |x| and y = min(2a, 44):
//
//	n   = round(y·log2e)                      (round-to-nearest)
//	r   = (y − n·ln2hi) − n·ln2lo             (|r| ≤ ln2/2, Cody–Waite)
//	p   = e^r − 1 ≈ r + r²·(c2 + r·c3 + … + r⁹·c11)
//	em1 = 2ⁿ·p + (2ⁿ − 1)                     (= e^y − 1, no cancellation)
//	t   = em1/(em1 + 2)                       (= tanh(a), exactly in ℝ)
//
// and the result is t with x's sign bit. The y = 44 clamp makes large
// inputs and ±Inf saturate to ±1 exactly (2/(e⁴⁴+1) rounds away in the
// final divide, matching mathx.Tanh's saturation for |x| > 22); a final
// unordered-compare blend passes NaN inputs through unchanged. Maximum
// observed error against mathx.Tanh is a few ulps — far inside the GEMM
// mode's documented 1e-9 tolerance (see gemm.go).
//
// 2ⁿ is built without a float→int round trip: y is integral after the
// round, so nd + 2⁵² puts n in the low mantissa bits, the <<52 shifts the
// 2⁵² exponent field out, and adding the bit pattern of 1.0 yields
// (n+1023)<<52 = 2ⁿ (n ∈ [0, 64], so the exponent never carries).

#include "textflag.h"

// absmask @0, clamp=44 @32, log2e @64, ln2hi @96, ln2lo @128,
// c2..c11 @160+32k, one @480, two @512, magic=2^52 @544.
DATA ·vtanhConsts+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA ·vtanhConsts+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA ·vtanhConsts+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA ·vtanhConsts+24(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA ·vtanhConsts+32(SB)/8, $0x4046000000000000
DATA ·vtanhConsts+40(SB)/8, $0x4046000000000000
DATA ·vtanhConsts+48(SB)/8, $0x4046000000000000
DATA ·vtanhConsts+56(SB)/8, $0x4046000000000000
DATA ·vtanhConsts+64(SB)/8, $0x3FF71547652B82FE
DATA ·vtanhConsts+72(SB)/8, $0x3FF71547652B82FE
DATA ·vtanhConsts+80(SB)/8, $0x3FF71547652B82FE
DATA ·vtanhConsts+88(SB)/8, $0x3FF71547652B82FE
DATA ·vtanhConsts+96(SB)/8, $0x3FE62E42FEE00000
DATA ·vtanhConsts+104(SB)/8, $0x3FE62E42FEE00000
DATA ·vtanhConsts+112(SB)/8, $0x3FE62E42FEE00000
DATA ·vtanhConsts+120(SB)/8, $0x3FE62E42FEE00000
DATA ·vtanhConsts+128(SB)/8, $0x3DEA39EF35793C76
DATA ·vtanhConsts+136(SB)/8, $0x3DEA39EF35793C76
DATA ·vtanhConsts+144(SB)/8, $0x3DEA39EF35793C76
DATA ·vtanhConsts+152(SB)/8, $0x3DEA39EF35793C76
DATA ·vtanhConsts+160(SB)/8, $0x3FE0000000000000
DATA ·vtanhConsts+168(SB)/8, $0x3FE0000000000000
DATA ·vtanhConsts+176(SB)/8, $0x3FE0000000000000
DATA ·vtanhConsts+184(SB)/8, $0x3FE0000000000000
DATA ·vtanhConsts+192(SB)/8, $0x3FC5555555555555
DATA ·vtanhConsts+200(SB)/8, $0x3FC5555555555555
DATA ·vtanhConsts+208(SB)/8, $0x3FC5555555555555
DATA ·vtanhConsts+216(SB)/8, $0x3FC5555555555555
DATA ·vtanhConsts+224(SB)/8, $0x3FA5555555555555
DATA ·vtanhConsts+232(SB)/8, $0x3FA5555555555555
DATA ·vtanhConsts+240(SB)/8, $0x3FA5555555555555
DATA ·vtanhConsts+248(SB)/8, $0x3FA5555555555555
DATA ·vtanhConsts+256(SB)/8, $0x3F81111111111111
DATA ·vtanhConsts+264(SB)/8, $0x3F81111111111111
DATA ·vtanhConsts+272(SB)/8, $0x3F81111111111111
DATA ·vtanhConsts+280(SB)/8, $0x3F81111111111111
DATA ·vtanhConsts+288(SB)/8, $0x3F56C16C16C16C17
DATA ·vtanhConsts+296(SB)/8, $0x3F56C16C16C16C17
DATA ·vtanhConsts+304(SB)/8, $0x3F56C16C16C16C17
DATA ·vtanhConsts+312(SB)/8, $0x3F56C16C16C16C17
DATA ·vtanhConsts+320(SB)/8, $0x3F2A01A01A01A01A
DATA ·vtanhConsts+328(SB)/8, $0x3F2A01A01A01A01A
DATA ·vtanhConsts+336(SB)/8, $0x3F2A01A01A01A01A
DATA ·vtanhConsts+344(SB)/8, $0x3F2A01A01A01A01A
DATA ·vtanhConsts+352(SB)/8, $0x3EFA01A01A01A01A
DATA ·vtanhConsts+360(SB)/8, $0x3EFA01A01A01A01A
DATA ·vtanhConsts+368(SB)/8, $0x3EFA01A01A01A01A
DATA ·vtanhConsts+376(SB)/8, $0x3EFA01A01A01A01A
DATA ·vtanhConsts+384(SB)/8, $0x3EC71DE3A556C734
DATA ·vtanhConsts+392(SB)/8, $0x3EC71DE3A556C734
DATA ·vtanhConsts+400(SB)/8, $0x3EC71DE3A556C734
DATA ·vtanhConsts+408(SB)/8, $0x3EC71DE3A556C734
DATA ·vtanhConsts+416(SB)/8, $0x3E927E4FB7789F5C
DATA ·vtanhConsts+424(SB)/8, $0x3E927E4FB7789F5C
DATA ·vtanhConsts+432(SB)/8, $0x3E927E4FB7789F5C
DATA ·vtanhConsts+440(SB)/8, $0x3E927E4FB7789F5C
DATA ·vtanhConsts+448(SB)/8, $0x3E5AE64567F544E4
DATA ·vtanhConsts+456(SB)/8, $0x3E5AE64567F544E4
DATA ·vtanhConsts+464(SB)/8, $0x3E5AE64567F544E4
DATA ·vtanhConsts+472(SB)/8, $0x3E5AE64567F544E4
DATA ·vtanhConsts+480(SB)/8, $0x3FF0000000000000
DATA ·vtanhConsts+488(SB)/8, $0x3FF0000000000000
DATA ·vtanhConsts+496(SB)/8, $0x3FF0000000000000
DATA ·vtanhConsts+504(SB)/8, $0x3FF0000000000000
DATA ·vtanhConsts+512(SB)/8, $0x4000000000000000
DATA ·vtanhConsts+520(SB)/8, $0x4000000000000000
DATA ·vtanhConsts+528(SB)/8, $0x4000000000000000
DATA ·vtanhConsts+536(SB)/8, $0x4000000000000000
DATA ·vtanhConsts+544(SB)/8, $0x4330000000000000
DATA ·vtanhConsts+552(SB)/8, $0x4330000000000000
DATA ·vtanhConsts+560(SB)/8, $0x4330000000000000
DATA ·vtanhConsts+568(SB)/8, $0x4330000000000000
GLOBL ·vtanhConsts(SB), RODATA|NOPTR, $576

// func vtanhAsm(p *float64, n int)
TEXT ·vtanhAsm(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ ·vtanhConsts(SB), R8
	VMOVUPD 0(R8), Y15   // |·| mask, live across the loop

loop:
	VMOVUPD (DI), Y0     // x
	VANDPD  Y15, Y0, Y1  // a = |x|
	VADDPD  Y1, Y1, Y1   // y = 2a
	VMINPD  32(R8), Y1, Y1 // y = min(y, 44); NaN falls through to the blend
	VMULPD  64(R8), Y1, Y2
	VROUNDPD $0, Y2, Y2  // n = round-to-nearest(y·log2e), still a double

	// r = (y − n·ln2hi) − n·ln2lo
	VMOVAPD      Y1, Y3
	VFNMADD231PD 96(R8), Y2, Y3
	VFNMADD231PD 128(R8), Y2, Y3

	// q = c2 + r·(c3 + r·(… + r·c11)), Horner
	VMOVUPD     448(R8), Y4
	VFMADD213PD 416(R8), Y3, Y4
	VFMADD213PD 384(R8), Y3, Y4
	VFMADD213PD 352(R8), Y3, Y4
	VFMADD213PD 320(R8), Y3, Y4
	VFMADD213PD 288(R8), Y3, Y4
	VFMADD213PD 256(R8), Y3, Y4
	VFMADD213PD 224(R8), Y3, Y4
	VFMADD213PD 192(R8), Y3, Y4
	VFMADD213PD 160(R8), Y3, Y4

	VMULPD      Y3, Y3, Y5 // r²
	VFMADD213PD Y3, Y4, Y5 // p = r²·q + r  (= e^r − 1)

	// s = 2ⁿ via exponent-field arithmetic (see file comment)
	VADDPD 544(R8), Y2, Y2
	VPSLLQ $52, Y2, Y2
	VPADDQ 480(R8), Y2, Y2

	VSUBPD      480(R8), Y2, Y6 // s − 1 (exact: n ≤ 64)
	VFMADD213PD Y6, Y2, Y5      // em1 = s·p + (s − 1)
	VADDPD      512(R8), Y5, Y6 // em1 + 2
	VDIVPD      Y6, Y5, Y5      // t = em1/(em1+2)

	VANDNPD Y0, Y15, Y6 // sign bit of x
	VORPD   Y6, Y5, Y5  // t gets x's sign

	// NaN lanes pass x through: t ^= (x ^ t) & unordered(x, x)
	VCMPPD $3, Y0, Y0, Y6
	VXORPD Y5, Y0, Y7
	VANDPD Y6, Y7, Y7
	VXORPD Y7, Y5, Y5

	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop

	VZEROUPPER
	RET
