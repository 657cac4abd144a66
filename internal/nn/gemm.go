package nn

// The inference forward behind NewBatchCacheGEMM. On amd64 with AVX2+FMA each
// batch row runs through the fused-multiply-add assembly kernel in
// fma_amd64.s (register-tiled output columns over the cache's transposed
// weights, one rounding per multiply-add); its hidden activation is the one
// every cache runs (applyActivation), so tanh is mathx.Tanh bit for bit.
// The price is in the dense sums alone: fused rounding differs from the one
// dense kernel's multiply-then-add, so outputs match the per-sample path to
// ~1e-12 relative error, not bitwise (see TestGEMMMatchesPerSample). That is
// fine for serving a fixed policy — an argmax over logits — and never
// acceptable for training, whose goldens pin every bit, so nothing in
// internal/rl builds this cache. It is the only forward that is not bitwise:
// the training kernel's SIMD forward (kernel_amd64.s) shares the transposed
// weights but multiplies then adds, one output per lane, which issues twice
// the vector operations of a fused multiply-add. Without the hardware, a GEMM
// cache runs the one kernel's Go loops like any other.

// forwardRowsFMA writes y = x·Wᵀ + b for the n rows of x with the fused
// assembly, wt being W transposed. Callers must have checked useAsm.
func (d *Dense) forwardRowsFMA(x, y, wt []float64, n int) {
	in, out := d.In, d.Out
	for r := 0; r < n; r++ {
		gemmRowFMA(y[r*out:(r+1)*out], d.B, x[r*in:(r+1)*in], wt, in, out)
	}
}
