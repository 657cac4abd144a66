package nn

// The inference forward behind NewBatchCacheGEMM. On amd64 with AVX2+FMA each
// batch row runs through the fused-multiply-add assembly kernel in
// fma_amd64.s (register-tiled output columns over a transposed weight matrix,
// one rounding per multiply-add) and hidden tanh layers through the vector
// tanh in vtanh_amd64.s. The price is a floating-point summation order that
// differs from the one dense kernel's and depends on the hardware: outputs
// match the per-sample path to ~1e-12 relative error, not bitwise (see
// TestGEMMMatchesPerSample). That is fine for serving a fixed policy — an
// argmax over logits — and never acceptable for training, whose goldens pin
// every bit, so nothing in internal/rl builds this cache. Without the
// hardware, a GEMM cache runs the one kernel like any other.

// transposeInto writes the Out×In row-major matrix w as an In×Out row-major
// matrix into wt.
func transposeInto(w, wt []float64, out, in int) {
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		for i, v := range row {
			wt[i*out+o] = v
		}
	}
}

// forwardBatchFMA is the matrix-matrix form of the forward pass: for each
// layer it materializes Wᵀ into the cache's scratch (refreshed per pass —
// O(In·Out) against the O(n·In·Out) multiply it unlocks — unless the cache
// has been marked static, see SetStaticWeights) and computes Y = X·Wᵀ + B
// with the bias initialization riding inside the assembly kernel, then
// applies the hidden activation in place. Callers must have checked useFMA.
func (m *MLP) forwardBatchFMA(c *BatchCache, n int) []float64 {
	refresh := !c.staticW || !c.wtReady
	for li, l := range m.layers {
		if refresh {
			transposeInto(l.W, c.wt[li], l.Out, l.In)
		}
		xm, ym := c.acts[li], c.acts[li+1]
		for r := 0; r < n; r++ {
			gemmRowFMA(ym[r*l.Out:(r+1)*l.Out], l.B, xm[r*l.In:(r+1)*l.In], c.wt[li], l.In, l.Out)
		}
		if li < len(m.layers)-1 {
			if m.hidden == Tanh {
				// Agrees with math.Tanh to a few ulps, not bitwise.
				vtanh(ym[:n*l.Out])
			} else {
				applyActivation(m.hidden, ym[:n*l.Out])
			}
		}
	}
	c.wtReady = true
	return c.acts[len(m.layers)][:n*m.OutputSize()]
}
