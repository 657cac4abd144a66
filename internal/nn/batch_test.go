package nn

import (
	"math"
	"sync"
	"testing"

	"advnet/internal/mathx"
)

// makeBatch builds n deterministic input rows for an MLP with input size in.
func makeBatch(rng *mathx.RNG, n, in int) []float64 {
	xs := make([]float64, n*in)
	for i := range xs {
		xs[i] = rng.Uniform(-2, 2)
	}
	return xs
}

func TestForwardIntoMatchesForward(t *testing.T) {
	rng := mathx.NewRNG(41)
	m := NewMLP(rng, []int{4, 6, 3}, Tanh)
	c := m.NewCache()
	for trial := 0; trial < 20; trial++ {
		x := makeBatch(rng, 1, 4)
		want := m.Predict(x)
		got := m.ForwardInto(c, x)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d out[%d]: ForwardInto %v, Forward %v", trial, j, got[j], want[j])
			}
		}
	}
}

func TestBackwardIntoMatchesBackward(t *testing.T) {
	rng := mathx.NewRNG(43)
	a := NewMLP(rng, []int{3, 5, 2}, Tanh)
	b := a.Clone()
	x := []float64{0.4, -1.1, 0.7}
	dOut := []float64{1.5, -0.25}

	_, ca := a.Forward(x)
	a.ZeroGrad()
	dxa := a.Backward(ca, dOut)

	cb := b.NewCache()
	b.ForwardInto(cb, x)
	b.ZeroGrad()
	dxb := b.BackwardInto(cb, dOut)

	for i := range dxa {
		if dxa[i] != dxb[i] {
			t.Fatalf("input grad[%d]: Backward %v, BackwardInto %v", i, dxa[i], dxb[i])
		}
	}
	ga, gb := a.Grads(), b.Grads()
	for pi := range ga {
		for i := range ga[pi] {
			if ga[pi][i] != gb[pi][i] {
				t.Fatalf("grad[%d][%d]: Backward %v, BackwardInto %v", pi, i, ga[pi][i], gb[pi][i])
			}
		}
	}
}

// TestBatchMatchesPerSampleBitwise: the tiled kernel, batched or one row at a
// time, must be bit-for-bit the scalar per-sample loops it replaced — the
// invariant every golden fingerprint in the repository rests on — on every
// dispatch path. Layer 0 is in×out and layer 1 out×out, so both the forward
// tiles (2 rows × 4 outputs in Go; 4-row groups × 8/4/2/1 outputs in the
// assembly) and the backward sweeps (4 rows for gradW, 4 outputs for dX)
// meet every remainder.
func TestBatchMatchesPerSampleBitwise(t *testing.T) {
	eachKernel(func(kernel string) {
		rng := mathx.NewRNG(47)
		for _, hidden := range []Activation{Tanh, ReLU, Identity} {
			for _, in := range []int{1, 2, 25, 64} {
				for _, out := range []int{1, 3, 4, 5, 6, 7, 15, 64} {
					for _, n := range []int{1, 2, 3, 4, 5, 8, 11, 63, 64, 65} {
						checkKernelMatchesReference(t, kernel, rng, []int{in, out, out}, hidden, n, false)
					}
				}
			}
			// ±0, subnormals, ±Inf, NaN and overflow in inputs, gradients and
			// weights, on the two network shapes the paper trains.
			for _, sizes := range [][]int{{25, 64, 32, 6}, {2, 4, 1}} {
				for _, n := range []int{1, 5, 8, 64} {
					checkKernelMatchesReference(t, kernel, rng, sizes, hidden, n, true)
				}
			}
		}
	})
}

// TestKernelNeverFuses: a training pass must multiply, round, then add —
// never fuse the two into one rounding. Every weight, input and gradient
// below is chosen so that the second term of each sum is
// (1+2⁻³⁰)(1−2⁻³⁰) = 1 − 2⁻⁶⁰, which rounds to 1 before it meets the −1
// from the first term: unfused, every sum is exactly 0; a fused
// multiply-add keeps the −2⁻⁶⁰. 23 outputs reach every output tile of the
// four-row forward (8/4/2/1) and of the one-row tile (16/4/1), which runs
// ForwardInto and the ninth batch row; 23 inputs and 5 outputs reach every
// tile of the batched gradW (16 wide, then 4 and 1 wide over four gw rows
// and over one) and of the one-row tile as BackwardInto's dX.
func TestKernelNeverFuses(t *testing.T) {
	const eps = 1.0 / (1 << 30)
	hi, lo := 1+eps, 1-eps
	if math.FMA(hi, lo, -1) == 0 || float64(hi*lo)-1 != 0 {
		t.Fatal("the rigged operands do not tell fused from unfused")
	}
	eachKernel(func(kernel string) {
		// Forward: y[r][o] = B[o] + ((+0 + (−1)·1) + hi·lo), B = 0.
		const in, out, n = 2, 23, 9
		m := NewMLP(mathx.NewRNG(1), []int{in, out}, Identity)
		w := m.Params()[0]
		for o := 0; o < out; o++ {
			w[o*in], w[o*in+1] = -1, hi
		}
		xs := make([]float64, n*in)
		for r := 0; r < n; r++ {
			xs[r*in], xs[r*in+1] = 1, lo
		}
		for i, y := range m.ForwardBatch(m.NewBatchCache(n), xs, n) {
			if y != 0 {
				t.Fatalf("%s kernel: forward out[%d] = %v, want 0 (a fused multiply-add gives %v)", kernel, i, y, math.FMA(hi, lo, -1))
			}
		}
		for i, y := range m.ForwardInto(m.NewCache(), xs[:in]) {
			if y != 0 {
				t.Fatalf("%s kernel: one-row forward out[%d] = %v, want 0", kernel, i, y)
			}
		}

		// gradW[o][i] = (((+0 + (−1)·1) + hi·lo) + (−1)·1) + hi·lo … over
		// eight rows alternating (g, x) = (−1, 1) and (hi, lo).
		const bin, bout, bn = 23, 5, 8
		b := NewMLP(mathx.NewRNG(1), []int{bin, bout}, Identity)
		bxs, gs := make([]float64, bn*bin), make([]float64, bn*bout)
		for r := 0; r < bn; r++ {
			x, g := 1.0, -1.0
			if r%2 == 1 {
				x, g = lo, hi
			}
			mathx.Fill(bxs[r*bin:(r+1)*bin], x)
			mathx.Fill(gs[r*bout:(r+1)*bout], g)
		}
		bc := b.NewBatchCache(bn)
		b.ForwardBatch(bc, bxs, bn)
		b.BackwardBatch(bc, gs)
		for i, g := range b.Grads()[0] {
			if g != 0 {
				t.Fatalf("%s kernel: gradW[%d] = %v, want 0", kernel, i, g)
			}
		}

		// dX[i] = (((+0 + 1·(−1)) + lo·hi) + 0·0) + ….
		bw := b.Params()[0]
		clear(bw)
		for i := 0; i < bin; i++ {
			bw[i], bw[bin+i] = -1, hi
		}
		c := b.NewCache()
		b.ForwardInto(c, bxs[:bin])
		for i, dx := range b.BackwardInto(c, []float64{1, lo, 0, 0, 0}) {
			if dx != 0 {
				t.Fatalf("%s kernel: dX[%d] = %v, want 0", kernel, i, dx)
			}
		}
	})
}

// TestConcurrentFirstForward: eight goroutines run the first forward of a
// fresh network at the same time, each through its own cache — serve's
// shards on a newly published snapshot. Under -race this checks the
// transpose rebuild; everywhere, every goroutine must get the answer of a
// network forwarded by one goroutine.
func TestConcurrentFirstForward(t *testing.T) {
	rng := mathx.NewRNG(101)
	m := NewMLP(rng, []int{25, 64, 32, 6}, Tanh)
	x := makeBatch(rng, 1, 25)
	want := m.Clone().Predict(x)

	const goroutines = 8
	outs := make([][]float64, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			c, bc := m.NewCache(), m.NewBatchCache(1)
			start.Wait()
			if g%2 == 0 {
				outs[g] = append([]float64(nil), m.ForwardInto(c, x)...)
			} else {
				outs[g] = append([]float64(nil), m.ForwardBatch(bc, x, 1)...)
			}
		}()
	}
	start.Done()
	done.Wait()
	for g, out := range outs {
		for j := range want {
			if !sameBits(out[j], want[j]) {
				t.Fatalf("goroutine %d out[%d] = %v, want %v", g, j, out[j], want[j])
			}
		}
	}
}

// TestShortBiasPanics: a hand-built layer whose bias is shorter than its
// output must panic on every dispatch path, not let the assembly read past
// the slice.
func TestShortBiasPanics(t *testing.T) {
	eachKernel(func(kernel string) {
		const n = 8
		m := NewMLP(mathx.NewRNG(1), []int{3, 8}, Identity)
		m.layers[0].B = make([]float64, 7)
		defer func() {
			if recover() == nil {
				t.Errorf("%s kernel: forward with 7 biases for 8 outputs did not panic", kernel)
			}
		}()
		m.ForwardBatch(m.NewBatchCache(n), make([]float64, n*3), n)
	})
}

func TestBatchCachePartialBatches(t *testing.T) {
	rng := mathx.NewRNG(53)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh)
	c := m.NewBatchCache(8)
	xs := makeBatch(rng, 8, 3)
	// A smaller batch through a larger cache must match per-sample output.
	out := m.ForwardBatch(c, xs[:3*3], 3)
	if len(out) != 3*2 {
		t.Fatalf("output length %d, want 6", len(out))
	}
	for r := 0; r < 3; r++ {
		want := m.Predict(xs[r*3 : (r+1)*3])
		for j := range want {
			if out[r*2+j] != want[j] {
				t.Fatalf("row %d out[%d] mismatch", r, j)
			}
		}
	}
}

func TestForwardIntoZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(59)
	m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
	c := m.NewCache()
	x := makeBatch(rng, 1, 6)
	if n := testing.AllocsPerRun(100, func() { m.ForwardInto(c, x) }); n != 0 {
		t.Fatalf("ForwardInto allocates %v per run, want 0", n)
	}
}

func TestBackwardIntoZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(61)
	m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
	c := m.NewCache()
	x := makeBatch(rng, 1, 6)
	dOut := []float64{1, -1, 0.5}
	m.ForwardInto(c, x)
	m.BackwardInto(c, dOut) // warm the lazy scratch
	if n := testing.AllocsPerRun(100, func() { m.BackwardInto(c, dOut) }); n != 0 {
		t.Fatalf("BackwardInto allocates %v per run, want 0", n)
	}
}

func TestBatchZeroAllocs(t *testing.T) {
	eachKernel(func(kernel string) {
		rng := mathx.NewRNG(67)
		m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
		const n = 16
		c := m.NewBatchCache(n)
		xs := makeBatch(rng, n, 6)
		douts := makeBatch(rng, n, 3)
		if a := testing.AllocsPerRun(50, func() {
			m.ForwardBatch(c, xs, n)
			m.BackwardBatch(c, douts)
		}); a != 0 {
			t.Fatalf("%s kernel: batched fwd+bwd allocates %v per run, want 0", kernel, a)
		}
	})
}

// TestOptimizerRoundZeroAllocs: the per-minibatch gradient bookkeeping —
// ZeroGrad, ScaleGrads, ClipGradNorm, Adam.Step over Params/Grads — must not
// allocate on a warm net: the views are built once per architecture, not
// rebuilt by every call.
func TestOptimizerRoundZeroAllocs(t *testing.T) {
	eachKernel(func(kernel string) {
		rng := mathx.NewRNG(69)
		m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
		adam := NewAdam(1e-3)
		round := func() {
			m.ZeroGrad()
			for _, g := range m.Grads() {
				mathx.Fill(g, 0.25)
			}
			m.ScaleGrads(0.5)
			m.ClipGradNorm(0.5)
			adam.Step(m.Params(), m.Grads())
		}
		round() // sizes Adam's moment buffers
		if a := testing.AllocsPerRun(50, round); a != 0 {
			t.Fatalf("%s kernel: optimizer round allocates %v per run, want 0", kernel, a)
		}
	})
}

// TestParamViewsSurviveAppend: Params/Grads hand out the same outer slice on
// every call, so appending to it (GaussianPolicy adds its log-std vector)
// must copy rather than write into the shared backing array — after Clone
// and UnmarshalJSON too, which rebuild the views.
func TestParamViewsSurviveAppend(t *testing.T) {
	rng := mathx.NewRNG(70)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded := new(MLP)
	if err := loaded.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*MLP{"new": m, "clone": m.Clone(), "loaded": loaded} {
		for _, views := range [][][]float64{net.Params(), net.Grads()} {
			if len(views) != 4 || len(views) != cap(views) {
				t.Fatalf("%s: views len %d cap %d, want 4 and 4", name, len(views), cap(views))
			}
		}
		a := append(net.Params(), []float64{1})
		b := append(net.Params(), []float64{2})
		if a[4][0] != 1 || b[4][0] != 2 {
			t.Fatalf("%s: two appends to Params share a backing array", name)
		}
		if &net.Params()[0][0] != &net.layers[0].W[0] || &net.Grads()[3][0] != &net.layers[1].gradB[0] {
			t.Fatalf("%s: views do not alias the layers' slices", name)
		}
	}
}

// TestForwardBatchRejectsOverCapacity is the regression test for the
// capacity guard: a batch larger than the cache must panic with a message
// naming both sizes instead of silently overrunning the activation matrices.
func TestForwardBatchRejectsOverCapacity(t *testing.T) {
	rng := mathx.NewRNG(71)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh)
	for _, c := range []*BatchCache{m.NewBatchCache(4), m.NewBatchCacheGEMM(4)} {
		xs := makeBatch(rng, 5, 3)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic for n > Capacity()")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				if want := "nn: ForwardBatch n=5 exceeds cache capacity 4"; msg != want {
					t.Fatalf("panic message %q, want %q", msg, want)
				}
			}()
			m.ForwardBatch(c, xs, 5)
		}()
	}
}

// TestForwardBatchRejectsNonPositive: n <= 0 must fail loudly, not fall
// through to a confusing slice-bounds panic (or a silent no-op backward).
func TestForwardBatchRejectsNonPositive(t *testing.T) {
	rng := mathx.NewRNG(73)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh)
	c := m.NewBatchCache(4)
	xs := makeBatch(rng, 4, 3)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for n=%d", n)
				}
			}()
			m.ForwardBatch(c, xs, n)
		}()
	}
}

// TestNewCacheAfterReload: re-architecting a network in place via
// UnmarshalJSON must size the next cache for the new layers.
func TestNewCacheAfterReload(t *testing.T) {
	rng := mathx.NewRNG(89)
	m := NewMLP(rng, []int{4, 8, 3}, Tanh)
	data, err := NewMLP(rng, []int{6, 10, 2}, ReLU).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	c := m.NewCache()
	if len(c.acts[0]) != 6 {
		t.Fatalf("cache sized for the old layers after reload: input width %d, want 6", len(c.acts[0]))
	}
	if out := m.ForwardInto(c, makeBatch(rng, 1, 6)); len(out) != 2 {
		t.Fatalf("forward after reload answers %d outputs, want 2", len(out))
	}
}
