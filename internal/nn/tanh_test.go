package nn

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// checkTanhKernel runs xs through applyActivation's tanh on the current
// dispatch path and requires every element to be mathx.Tanh of its input,
// bit for bit (NaN payloads and the sign of zero included).
func checkTanhKernel(t *testing.T, kernel string, xs []float64) {
	t.Helper()
	span := append([]float64(nil), xs...)
	applyActivation(Tanh, span)
	bad := 0
	for i, x := range xs {
		if got, want := math.Float64bits(span[i]), math.Float64bits(mathx.Tanh(x)); got != want {
			t.Errorf("%s kernel: tanh(%v [%#016x]) = %#016x, want %#016x", kernel, x, math.Float64bits(x), got, want)
			if bad++; bad == 10 {
				t.FailNow()
			}
		}
	}
}

// tanhBoundaries are the inputs where mathx.Tanh changes regime or special
// case, each with its neighbours one ulp away.
func tanhBoundaries() []float64 {
	const ratEdge, satEdge = 0.625, 0.5 * 8.8029691931113054295988e+01
	nan := math.NaN()
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, 0x1p-1023, -0x1p-1023, // smallest normal, a subnormal
		math.Inf(1), math.Inf(-1),
		nan, -nan,
		math.Float64frombits(0x7FF0000000000001), // signalling NaN
		math.Float64frombits(0xFFF8DEADBEEF0001), // negative NaN with a payload
		math.MaxFloat64, -math.MaxFloat64,
		1e-300, 1e-8, 0.5, 1, 2, 20, 22, 44, 100, 710, 1e300,
		// Found by search: each changes if one multiply-add of the kernel
		// is fused or split — tanhP[0]·s + tanhP[1], and Exp's Horner
		// steps + 1/3! and + 1/2 — where random inputs do so about once
		// in 10^8 to 10^9 draws.
		0.6200532842406806, 1.2130075665755156, 0.9425149588163237,
	}
	for _, e := range []float64{ratEdge, satEdge} {
		for _, v := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	return xs
}

// seededTanhInputs returns n inputs from rng: random bit patterns, uniform
// draws at several scales, and draws packed around both regime boundaries.
func seededTanhInputs(rng *mathx.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		var x float64
		switch i % 6 {
		case 0:
			x = math.Float64frombits(rng.Uint64())
		case 1:
			x = rng.Uniform(-60, 60)
		case 2:
			x = rng.Uniform(-3, 3)
		case 3:
			x = rng.Uniform(-0.7, 0.7)
		case 4:
			x = 0.625 + rng.Uniform(-1e-6, 1e-6)
		case 5:
			x = 44.014845965556525 + rng.Uniform(-1e-6, 1e-6)
		}
		if rng.Float64() < 0.5 {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// TestTanhKernelMatchesMathx: on every boundary and special value and on a
// million seeded inputs, the tanh activation is mathx.Tanh bit for bit, on
// every dispatch path. Spans of length 1 to 7 cover the padded tail.
func TestTanhKernelMatchesMathx(t *testing.T) {
	eachKernel(func(kernel string) {
		b := tanhBoundaries()
		checkTanhKernel(t, kernel, b)
		for i := range b {
			for n := 1; n <= 7 && i+n <= len(b); n++ {
				checkTanhKernel(t, kernel, b[i:i+n])
			}
		}
		checkTanhKernel(t, kernel, seededTanhInputs(mathx.NewRNG(7), 1<<20))
	})
}

// TestTanhKernelAllocs pins 0 allocations per tanh activation, the padded
// tail included.
func TestTanhKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping breaks AllocsPerRun accounting")
	}
	span := seededTanhInputs(mathx.NewRNG(8), 67)
	eachKernel(func(kernel string) {
		if n := testing.AllocsPerRun(100, func() { applyActivation(Tanh, span) }); n != 0 {
			t.Errorf("%s kernel: %v allocs per tanh activation, want 0", kernel, n)
		}
	})
}

// FuzzTanhKernel lets the fuzzer choose five inputs — one full group of four
// lanes and one padded tail — and checks each against mathx.Tanh, bit for bit.
func FuzzTanhKernel(f *testing.F) {
	f.Add(0.0, 0.625, -44.014845965556525, math.Inf(1), math.NaN())
	f.Add(math.Copysign(0, -1), 0.6249999999999999, 1.327088783922418, -22.0, 5e-324)
	f.Add(-0.3, 3.0, -1e300, 44.01484596555653, -0.625)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		eachKernel(func(kernel string) {
			checkTanhKernel(t, kernel, []float64{a, b, c, d, e})
		})
	})
}
