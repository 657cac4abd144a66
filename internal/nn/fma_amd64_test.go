//go:build amd64

package nn

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// eachKernel runs fn once per dispatch path of the one dense kernel: with the
// assembly gate forced off (the Go loops, as on any other architecture) and,
// where the CPU has AVX2, forced on. The gate is restored afterwards.
func eachKernel(fn func(kernel string)) {
	saved := useAsm
	defer func() { useAsm = saved }()
	useAsm = false
	fn("go")
	if cpuSupportsAsm() {
		useAsm = true
		fn("asm")
	}
}

// TestFMAKernelMatchesPortable runs the same batches through an inference
// cache with the assembly FMA forward and with it switched off (the one dense
// kernel, as on hardware without AVX2+FMA) and checks they agree to the
// documented tolerance. Shapes cover every output-tile width the assembly
// dispatches on (32/8/4/2/1 doubles) plus odd tails.
func TestFMAKernelMatchesPortable(t *testing.T) {
	if !cpuSupportsAsm() {
		t.Skip("no AVX2+FMA on this machine")
	}
	saved := useAsm
	defer func() { useAsm = saved }()

	rng := mathx.NewRNG(101)
	shapes := [][]int{
		{25, 64, 32, 6}, // the Pensieve serving shape
		{3, 1, 2},
		{5, 37, 11, 1}, // widths hitting the 32+4+1 and 8+2+1 tile ladders
		{7, 150, 3},
		{2, 2, 2},
	}
	for _, sizes := range shapes {
		for _, n := range []int{1, 5, 33, 64} {
			ref := NewMLP(rng, sizes, Tanh)
			g := ref.Clone()
			in, out := ref.InputSize(), ref.OutputSize()
			xs := makeBatch(rng, n, in)
			douts := makeBatch(rng, n, out)

			useAsm = false
			ref.ZeroGrad()
			cRef := ref.NewBatchCacheGEMM(n)
			wantOut := append([]float64(nil), ref.ForwardBatch(cRef, xs, n)...)
			ref.BackwardBatch(cRef, douts)

			useAsm = true
			g.ZeroGrad()
			cAsm := g.NewBatchCacheGEMM(n)
			gotOut := g.ForwardBatch(cAsm, xs, n)
			g.BackwardBatch(cAsm, douts)

			for i := range wantOut {
				if e := relErr(wantOut[i], gotOut[i]); e > 1e-9 {
					t.Fatalf("%v n=%d out[%d]: portable %v, FMA %v", sizes, n, i, wantOut[i], gotOut[i])
				}
			}
			gr, gg := ref.Grads(), g.Grads()
			for pi := range gr {
				for i := range gr[pi] {
					if e := relErr(gr[pi][i], gg[pi][i]); e > 1e-9 {
						t.Fatalf("%v n=%d grad[%d][%d]: portable %v, FMA %v", sizes, n, pi, i, gr[pi][i], gg[pi][i])
					}
				}
			}
		}
	}
}

// TestVTanhMatchesMathTanh sweeps the vector tanh against math.Tanh: a dense
// grid plus random points across every reduction regime (tiny, |2x| below
// one ln2 window, mid-range, saturation, clamp), denormals, zeros, infinities
// and NaN, at every tail length. The kernel's error budget is a few ulps;
// 1e-12 relative leaves two orders of margin inside that while staying far
// below the GEMM mode's 1e-9 contract.
func TestVTanhMatchesMathTanh(t *testing.T) {
	if !cpuSupportsAsm() {
		t.Skip("no AVX2+FMA on this machine")
	}
	var xs []float64
	for x := -25.0; x <= 25.0; x += 0.0137 {
		xs = append(xs, x)
	}
	rng := mathx.NewRNG(103)
	for i := 0; i < 20000; i++ {
		xs = append(xs, rng.Uniform(-30, 30))
	}
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.Uniform(-1e-3, 1e-3))
	}
	xs = append(xs,
		0, math.Copysign(0, -1),
		1e-300, -1e-300, 5e-324, -5e-324, // denormal territory
		0.1733, -0.1733, 0.3466, -0.3466, // reduction-window edges
		21.9, -21.9, 22.1, -22.1, // math.Tanh's own saturation threshold
		1e6, -1e6, math.Inf(1), math.Inf(-1),
	)
	got := append([]float64(nil), xs...)
	vtanh(got)
	for i, x := range xs {
		want := math.Tanh(x)
		if e := relErr(want, got[i]); e > 1e-12 {
			t.Fatalf("vtanh(%v) = %v, math.Tanh = %v (rel err %v)", x, got[i], want, e)
		}
		if math.Signbit(want) != math.Signbit(got[i]) {
			t.Fatalf("vtanh(%v) = %v: sign differs from math.Tanh's %v", x, got[i], want)
		}
	}

	// NaN propagates, and every tail length hits the padded path correctly.
	nan := []float64{math.NaN(), 1, -2, 3, 0.5}
	vtanh(nan)
	if !math.IsNaN(nan[0]) {
		t.Fatalf("vtanh(NaN) = %v, want NaN", nan[0])
	}
	for n := 1; n <= 9; n++ {
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.Uniform(-5, 5)
		}
		out := append([]float64(nil), in...)
		vtanh(out)
		for i := range in {
			if e := relErr(math.Tanh(in[i]), out[i]); e > 1e-12 {
				t.Fatalf("len %d: vtanh(%v) = %v, want %v", n, in[i], out[i], math.Tanh(in[i]))
			}
		}
	}
}
