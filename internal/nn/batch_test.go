package nn

import (
	"math"
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
// multiply-add keeps the −2⁻⁶⁰. Shapes reach every forward tile width of
// the assembly (15 = 8+4+2+1 outputs, two 4-row groups) and both the ymm
// steps and the scalar tail of axpy4.
func TestKernelNeverFuses(t *testing.T) {
	const eps = 1.0 / (1 << 30)
	hi, lo := 1+eps, 1-eps
	if math.FMA(hi, lo, -1) == 0 || float64(hi*lo)-1 != 0 {
		t.Fatal("the rigged operands do not tell fused from unfused")
	}
	eachKernel(func(kernel string) {
		// Forward: y[r][o] = B[o] + ((+0 + (−1)·1) + hi·lo), B = 0.
		const in, out, n = 2, 15, 8
		m := NewMLP(mathx.NewRNG(1), []int{in, out}, Identity)
		l := m.layers[0]
		for o := 0; o < out; o++ {
			l.W[o*in], l.W[o*in+1] = -1, hi
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

		// axpy4: y[i] = ((((+0 + (−1)·1) + hi·lo) + 0·0) + 0·0).
		for _, size := range []int{1, 3, 4, 7, 64} {
			y, ones, los, zeros := make([]float64, size), make([]float64, size), make([]float64, size), make([]float64, size)
			for i := range ones {
				ones[i], los[i] = 1, lo
			}
			axpy4(y, -1, ones, hi, los, 0, zeros, 0, zeros)
			for i, v := range y {
				if v != 0 {
					t.Fatalf("%s kernel: axpy4 len %d y[%d] = %v, want 0", kernel, size, i, v)
				}
			}
		}
	})
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

// TestAcquireReleaseCache exercises the sync.Pool-backed cache helpers: an
// acquired cache behaves exactly like a NewCache, a released cache is
// recycled, and releasing a foreign-architecture cache panics.
func TestAcquireReleaseCache(t *testing.T) {
	rng := mathx.NewRNG(79)
	m := NewMLP(rng, []int{4, 8, 3}, Tanh)
	x := makeBatch(rng, 1, 4)

	c := m.AcquireCache()
	got := mathx.CopyOf(m.ForwardInto(c, x))
	want := m.Predict(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("acquired-cache output[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	m.ReleaseCache(c)
	if c2 := m.AcquireCache(); c2 != c {
		// sync.Pool may drop entries under GC pressure, so identity is not
		// guaranteed — but a fresh cache must still be correctly sized.
		m.ForwardInto(c2, x)
		m.ReleaseCache(c2)
	} else {
		m.ReleaseCache(c2)
	}

	other := NewMLP(rng, []int{5, 8, 3}, Tanh)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic releasing a foreign cache")
			}
		}()
		other.ReleaseCache(m.NewCache())
	}()
	m.ReleaseCache(nil) // no-op
}

// TestAcquireCacheSteadyStateAllocs: once the pool is warm, an
// acquire→forward→release cycle must not allocate.
func TestAcquireCacheSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping breaks AllocsPerRun accounting")
	}
	rng := mathx.NewRNG(83)
	m := NewMLP(rng, []int{6, 16, 8, 3}, Tanh)
	x := makeBatch(rng, 1, 6)
	m.ReleaseCache(m.AcquireCache()) // warm the pool
	if n := testing.AllocsPerRun(200, func() {
		c := m.AcquireCache()
		m.ForwardInto(c, x)
		m.ReleaseCache(c)
	}); n > 0.1 {
		// sync.Pool occasionally re-allocates across GC cycles; near-zero is
		// the contract (a strict per-call allocation would report >= 1).
		t.Fatalf("acquire/forward/release allocates %v per run, want ~0", n)
	}
}

// TestAcquireCacheDropsStaleAfterReload: re-architecting a network in place
// via UnmarshalJSON must not hand out caches sized for the old layers.
func TestAcquireCacheDropsStaleAfterReload(t *testing.T) {
	rng := mathx.NewRNG(89)
	m := NewMLP(rng, []int{4, 8, 3}, Tanh)
	m.ReleaseCache(m.AcquireCache())
	data, err := NewMLP(rng, []int{6, 10, 2}, ReLU).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	c := m.AcquireCache()
	if len(c.acts[0]) != 6 {
		t.Fatalf("stale cache served after reload: input width %d, want 6", len(c.acts[0]))
	}
	m.ForwardInto(c, makeBatch(rng, 1, 6))
	m.ReleaseCache(c)
}
