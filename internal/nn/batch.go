package nn

import "fmt"

// BatchCache holds row-major activations for a multi-sample forward pass and
// the gradient matrices of the matching backward pass. It is sized for a
// maximum batch size when built and reused across minibatches, so the PPO
// update loop performs no per-step allocations.
//
// ForwardBatch/BackwardBatch run the one dense kernel (kernel.go), whose
// per-output operation order does not depend on the batch: a batched pass is
// bit-for-bit identical to the same samples passed one at a time through
// ForwardInto/BackwardInto, with parameter gradients accumulated in sample
// order. On AVX2 hardware both passes run four-lane SIMD over the network's
// transposed weights, one output per lane and never fused, so they are the
// same bits by construction.
//
// A cache built with NewBatchCacheGEMM is the inference variant: on AVX2+FMA
// hardware its ForwardBatch runs the dense layers through the
// fused-multiply-add assembly instead (see gemm.go), which agrees with the
// kernel only to rounding (~1e-12 relative); its tanh is the same bits.
// Nothing that trains uses it; internal/serve does.
//
// Like Cache, a BatchCache is single-goroutine state: ForwardBatch and
// BackwardBatch scribble over its activation matrices, so a cache must never
// be shared between goroutines. Concurrent servers of one (read-only) MLP
// each own a pre-sized BatchCache — that is exactly how internal/serve's
// shards share a hot-reloaded policy net safely.
type BatchCache struct {
	capacity int
	n        int  // rows in the last ForwardBatch
	gemm     bool // inference variant: FMA forward where the hardware has it
	// acts[0] is the input matrix; acts[i] the (post-activation) output of
	// layer i-1. Each is capacity×width_i, row-major.
	acts [][]float64
	// dacts[i] is the backward pass's gradient w.r.t. acts[i], same shape,
	// for i ≥ 1; dacts[0] stays nil because no caller reads a minibatch's
	// input gradient.
	dacts [][]float64
}

// NewBatchCache returns a cache able to hold up to capacity samples.
func (m *MLP) NewBatchCache(capacity int) *BatchCache {
	if capacity <= 0 {
		panic("nn: NewBatchCache with non-positive capacity")
	}
	// Every matrix is carved from one backing array, so a cache costs the
	// same few allocations whatever the network's depth.
	size := capacity * m.InputSize()
	for _, l := range m.layers {
		size += 2 * capacity * l.Out
	}
	arena := make([]float64, size)
	carve := func(n int) []float64 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	c := &BatchCache{
		capacity: capacity,
		acts:     make([][]float64, len(m.layers)+1),
		dacts:    make([][]float64, len(m.layers)+1),
	}
	c.acts[0] = carve(capacity * m.InputSize())
	for i, l := range m.layers {
		c.acts[i+1] = carve(capacity * l.Out)
		c.dacts[i+1] = carve(capacity * l.Out)
	}
	return c
}

// NewBatchCacheGEMM returns the inference variant of the cache: on AVX2+FMA
// hardware ForwardBatch runs the dense layers through the fused assembly
// kernel, so outputs match the per-sample path to rounding rather than
// bitwise. It differs from NewBatchCache only in how that kernel rounds its
// sums: the activations and BackwardBatch are the same as for every cache.
func (m *MLP) NewBatchCacheGEMM(capacity int) *BatchCache {
	c := m.NewBatchCache(capacity)
	c.gemm = true
	return c
}

// Capacity returns the maximum batch size the cache can hold.
func (c *BatchCache) Capacity() int { return c.capacity }

// ForwardBatch runs the network on n samples stored row-major in xs
// (n×InputSize) and returns the output matrix (n×OutputSize), aliased into
// the cache. No allocations.
func (m *MLP) ForwardBatch(c *BatchCache, xs []float64, n int) []float64 {
	in := m.InputSize()
	if n <= 0 {
		panic(fmt.Sprintf("nn: ForwardBatch with non-positive batch size %d", n))
	}
	if len(xs) < n*in {
		panic(fmt.Sprintf("nn: ForwardBatch input has %d values, want %d", len(xs), n*in))
	}
	if n > c.capacity {
		panic(fmt.Sprintf("nn: ForwardBatch n=%d exceeds cache capacity %d", n, c.capacity))
	}
	c.n = n
	copy(c.acts[0][:n*in], xs[:n*in])
	return m.forward(c.acts, n, c.gemm)
}

// BackwardBatch accumulates parameter gradients for every sample of the last
// ForwardBatch through c, given dOut, the row-major (n×OutputSize) gradient
// of the loss w.r.t. the network outputs. Samples are processed in row
// order, so the accumulated gradients match n sequential per-sample Backward
// calls exactly. Gradients accumulate across calls until ZeroGrad.
func (m *MLP) BackwardBatch(c *BatchCache, dOut []float64) {
	out := m.OutputSize()
	n := c.n
	if len(dOut) < n*out {
		panic(fmt.Sprintf("nn: BackwardBatch gradient has %d values, want %d", len(dOut), n*out))
	}
	copy(c.dacts[len(m.layers)][:n*out], dOut[:n*out])
	m.backwardLayers(c.acts, c.dacts, n)
}
