package nn

import (
	"fmt"
	"testing"

	"advnet/internal/mathx"
)

// BenchmarkTanhKernel times the tanh activation over 96 values (Pensieve's
// hidden widths, 64 + 32) on the current dispatch path, per regime mix:
// every |x| < 0.5 (the rational regime alone), every |x| in [1, 10] (the
// Exp regime alone) and x uniform in [−2, 2] (both, lane by lane). Each
// iteration copies the inputs back first, because the activation works in
// place.
func BenchmarkTanhKernel(b *testing.B) {
	rng := mathx.NewRNG(5)
	for _, c := range []struct {
		name string
		draw func() float64
	}{
		{"rational", func() float64 { return rng.Uniform(-0.5, 0.5) }},
		{"exp", func() float64 {
			if rng.Float64() < 0.5 {
				return -rng.Uniform(1, 10)
			}
			return rng.Uniform(1, 10)
		}},
		{"mixed", func() float64 { return rng.Uniform(-2, 2) }},
	} {
		xs := make([]float64, 96)
		for i := range xs {
			xs[i] = c.draw()
		}
		span := make([]float64, len(xs))
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(span, xs)
				applyActivation(Tanh, span)
			}
		})
	}
}

// BenchmarkForwardBatch compares the training cache's forward with the
// inference cache's (NewBatchCacheGEMM: the fused dense kernel) on the
// Pensieve actor's shape, for a lone request and a full serving batch.
func BenchmarkForwardBatch(b *testing.B) {
	rng := mathx.NewRNG(6)
	m := NewMLP(rng, []int{25, 64, 32, 6}, Tanh)
	for _, n := range []int{1, 32} {
		xs := makeBatch(rng, n, m.InputSize())
		for _, c := range []struct {
			name  string
			cache *BatchCache
		}{
			{"bitwise", m.NewBatchCache(n)},
			{"gemm", m.NewBatchCacheGEMM(n)},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.ForwardBatch(c.cache, xs, n)
				}
			})
		}
	}
}
