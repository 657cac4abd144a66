package nn

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// relErr returns |a−b| / max(1, |a|, |b|): absolute near zero, relative
// otherwise.
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / scale
}

// checkGEMMEquivalence runs n samples through a per-sample reference and
// through the inference cache c (which may be larger than n) and asserts
// outputs agree to tol relative error — and the gradients too: the backward
// pass is the one kernel either way, fed activations that differ only by the
// FMA forward's rounding.
func checkGEMMEquivalence(t *testing.T, ref, g *MLP, c *BatchCache, xs, douts []float64, n int, tol float64) {
	t.Helper()
	in, out := ref.InputSize(), ref.OutputSize()

	ref.ZeroGrad()
	seqOut := make([]float64, n*out)
	rc := ref.NewCache()
	for r := 0; r < n; r++ {
		o := ref.ForwardInto(rc, xs[r*in:(r+1)*in])
		copy(seqOut[r*out:], o)
		ref.BackwardInto(rc, douts[r*out:(r+1)*out])
	}

	g.ZeroGrad()
	gemmOut := g.ForwardBatch(c, xs, n)
	g.BackwardBatch(c, douts)

	for i := range seqOut {
		if e := relErr(seqOut[i], gemmOut[i]); e > tol {
			t.Fatalf("out[%d]: per-sample %v, GEMM %v (rel err %v)", i, seqOut[i], gemmOut[i], e)
		}
	}
	gr, gg := ref.Grads(), g.Grads()
	for pi := range gr {
		for i := range gr[pi] {
			if e := relErr(gr[pi][i], gg[pi][i]); e > tol {
				t.Fatalf("grad[%d][%d]: per-sample %v, GEMM %v (rel err %v)", pi, i, gr[pi][i], gg[pi][i], e)
			}
		}
	}
}

// TestGEMMMatchesPerSample: a pass through the inference cache must agree
// with the per-sample path to ≤1e-9 relative error across activations and
// shapes, including widths of 1, layers wider than the assembly's widest
// output tile, and batch sizes straddling the kernel's row tiles.
func TestGEMMMatchesPerSample(t *testing.T) {
	rng := mathx.NewRNG(71)
	shapes := [][]int{
		{5, 7, 4, 2},
		{3, 1, 2},       // width-1 hidden layer
		{1, 4, 1},       // width-1 input and output
		{24, 32, 16, 1}, // the ABR adversary shape
		{7, 150, 3},     // hidden wider than four 32-double output tiles
		{2, 5, 5, 5, 2},
	}
	for _, hidden := range []Activation{Tanh, ReLU, Identity} {
		for _, sizes := range shapes {
			for _, n := range []int{1, 3, 4, 5, 31, 32, 33, 64} {
				ref := NewMLP(rng, sizes, hidden)
				g := ref.Clone()
				c := g.NewBatchCacheGEMM(n)
				in, out := ref.InputSize(), ref.OutputSize()
				xs := makeBatch(rng, n, in)
				douts := makeBatch(rng, n, out)
				checkGEMMEquivalence(t, ref, g, c, xs, douts, n, 1e-9)
			}
		}
	}
}

// TestGEMMPartialBatchAndReuse: a GEMM cache must give equivalent results
// for batches smaller than its capacity and must stay correct when reused
// across passes with varying n (stale rows from a larger earlier batch must
// never leak into a smaller later one).
func TestGEMMPartialBatchAndReuse(t *testing.T) {
	rng := mathx.NewRNG(73)
	ref := NewMLP(rng, []int{6, 9, 3}, Tanh)
	g := ref.Clone()
	c := g.NewBatchCacheGEMM(16)
	for _, n := range []int{16, 5, 11, 1, 16} {
		xs := makeBatch(rng, n, 6)
		douts := makeBatch(rng, n, 3)
		checkGEMMEquivalence(t, ref, g, c, xs, douts, n, 1e-9)
	}
}

// TestGEMMAccumulatesAcrossCalls: like the per-sample path, a backward pass
// through the inference cache must accumulate gradients across calls until
// ZeroGrad.
func TestGEMMAccumulatesAcrossCalls(t *testing.T) {
	rng := mathx.NewRNG(79)
	ref := NewMLP(rng, []int{4, 6, 2}, ReLU)
	g := ref.Clone()
	c := g.NewBatchCacheGEMM(8)
	rc := ref.NewCache()
	const n = 8
	ref.ZeroGrad()
	g.ZeroGrad()
	for pass := 0; pass < 3; pass++ {
		xs := makeBatch(rng, n, 4)
		douts := makeBatch(rng, n, 2)
		for r := 0; r < n; r++ {
			ref.ForwardInto(rc, xs[r*4:(r+1)*4])
			ref.BackwardInto(rc, douts[r*2:(r+1)*2])
		}
		g.ForwardBatch(c, xs, n)
		g.BackwardBatch(c, douts)
	}
	gr, gg := ref.Grads(), g.Grads()
	for pi := range gr {
		for i := range gr[pi] {
			if e := relErr(gr[pi][i], gg[pi][i]); e > 1e-9 {
				t.Fatalf("accumulated grad[%d][%d]: per-sample %v, GEMM %v", pi, i, gr[pi][i], gg[pi][i])
			}
		}
	}
}

// TestGEMMZeroAllocs: passes through the inference cache must be
// allocation-free once the cache is built, like every other cache's.
func TestGEMMZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(83)
	m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
	const n = 16
	c := m.NewBatchCacheGEMM(n)
	xs := makeBatch(rng, n, 6)
	douts := makeBatch(rng, n, 3)
	if a := testing.AllocsPerRun(50, func() {
		m.ForwardBatch(c, xs, n)
		m.BackwardBatch(c, douts)
	}); a != 0 {
		t.Fatalf("GEMM fwd+bwd allocates %v per run, want 0", a)
	}
}

// TestGEMMFollowsWeightWrites: a GEMM cache follows a weight write with no
// call from its owner. After the weights change through Params, the next pass
// through the same cache must move off the old outputs and match a clone of
// the network — whose transposes are built from the new weights — exactly.
func TestGEMMFollowsWeightWrites(t *testing.T) {
	eachKernel(func(kernel string) {
		rng := mathx.NewRNG(97)
		m := NewMLP(rng, []int{4, 8, 3}, Tanh)
		const n = 4
		c := m.NewBatchCacheGEMM(n)
		xs := makeBatch(rng, n, 4)
		before := append([]float64(nil), m.ForwardBatch(c, xs, n)...)

		for _, p := range m.Params() {
			for i := range p {
				p[i] += 0.5
			}
		}
		got := m.ForwardBatch(c, xs, n)
		fresh := m.Clone()
		want := fresh.ForwardBatch(fresh.NewBatchCacheGEMM(n), xs, n)
		moved := false
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s kernel: out[%d] after a weight write %v, a fresh network's %v", kernel, i, got[i], want[i])
			}
			moved = moved || got[i] != before[i]
		}
		if !moved {
			t.Fatalf("%s kernel: outputs did not move after a weight write", kernel)
		}
	})
}

// TestGEMMModeFlag: only caches from NewBatchCacheGEMM report the inference
// variant.
func TestGEMMModeFlag(t *testing.T) {
	rng := mathx.NewRNG(89)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh)
	if m.NewBatchCache(4).gemm {
		t.Fatal("default cache reports GEMM mode")
	}
	if !m.NewBatchCacheGEMM(4).gemm {
		t.Fatal("GEMM cache does not report GEMM mode")
	}
}
