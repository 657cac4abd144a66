package mathx

import "math"

// Exp and Tanh are the repository's only exponential. Go's amd64 math.Exp
// (exp_amd64.s) picks one of two instruction sequences at run time — fused
// multiply-adds when the CPU has FMA, separate SSE2 multiplies and adds when
// it has not (or GODEBUG=cpu.fma=off) — and the two round differently, so
// every result built on math.Exp or math.Tanh depended on the host. These are
// the FMA sequence written out in Go: math.FMA exactly where the assembly
// fuses (the two reduction steps, the Horner chain and the final +1), every
// other product wrapped in float64() so that no compiler may fuse it, and
// math.FMA is correctly rounded on every host. They are therefore bit-for-bit
// math.Exp and math.Tanh of an FMA amd64 host, on any amd64 host.

const (
	expLog2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2Hi    = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	expOverflow = 7.09782712893384e+02
)

// Exp returns e**x, bit-for-bit Go's amd64 math.Exp on its FMA path.
//
// Special cases are:
//
//	Exp(+Inf) = +Inf
//	Exp(NaN) = NaN (x itself)
//	Exp(-Inf) = 0
//	Exp(x) = +Inf for x > 7.09782712893384e+02
//	Exp(x) = 0 when e**x underflows past the smallest subnormal
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	k := cvtsd2sl(float64(expLog2e * x))
	kd := float64(k)
	// x − k·ln2 in two fused steps, then scaled into the series' range.
	r := math.FMA(-expLn2Hi, kd, x)
	r = math.FMA(-expLn2Lo, kd, r)
	r = float64(r * 0.0625)
	// Horner's rule over the Taylor coefficients 1/8!, …, 1/2!, 1.
	p := 2.4801587301587301587e-5
	p = math.FMA(r, p, 1.9841269841269841270e-4)
	p = math.FMA(r, p, 1.3888888888888888889e-3)
	p = math.FMA(r, p, 8.3333333333333333333e-3)
	p = math.FMA(r, p, 4.1666666666666666667e-2)
	p = math.FMA(r, p, 1.6666666666666666667e-1)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	// e = e^(r·16) − 1 by four squarings of (1 + e): e ← e·(e + 2).
	e := float64(r * p)
	e = float64(e * (e + 2))
	e = float64(e * (e + 2))
	e = float64(e * (e + 2))
	e = math.FMA(e+2, e, 1)
	// e · 2^k, through a subnormal step when 2^k is below the normal range.
	bx := k + 0x3FF
	if bx <= 0 {
		if bx < -52 {
			return 0
		}
		e = float64(e * math.Float64frombits(uint64(bx+0x3FE)<<52))
		bx = 1
	} else if bx >= 0x7FF {
		return math.Inf(1)
	}
	return float64(e * math.Float64frombits(uint64(bx)<<52))
}

// cvtsd2sl is CVTSD2SL under the default rounding mode: t rounded half to
// even, or the "integer indefinite" math.MinInt32 when that is not an int32
// (including t = -Inf, which log2e·x reaches for x near -MaxFloat64).
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if r < math.MinInt32 || r > math.MaxInt32 {
		return math.MinInt32
	}
	return int32(r)
}

// tanhMaxLog is log(2**127): above half of it tanh is ±1 in float64.
const tanhMaxLog = 8.8029691931113054295988e+01

var (
	tanhP = [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
	tanhQ = [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}
)

// Tanh returns the hyperbolic tangent of x: Go's math/tanh.go (the Cephes
// algorithm) over Exp, so bit-for-bit math.Tanh of an FMA amd64 host.
//
// Special cases are:
//
//	Tanh(±0) = ±0
//	Tanh(±Inf) = ±1
//	Tanh(NaN) = NaN
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*tanhMaxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		p := float64(tanhP[0]*s) + tanhP[1]
		p = float64(p*s) + tanhP[2]
		q := float64((s+tanhQ[0])*s) + tanhQ[1]
		q = float64(q*s) + tanhQ[2]
		z = x + float64(float64(x*s)*p)/q
	}
	return z
}
