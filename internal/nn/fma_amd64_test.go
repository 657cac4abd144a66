//go:build amd64

package nn

import (
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
