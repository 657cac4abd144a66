package rl

import (
	"math"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// checkBatchMatchesPerSample runs the same rows through batch's
// BatchEval+BatchGrad and, one at a time, through ref's LogProb+Backward —
// the per-sample update PPO used before it required a BatchPolicy — and
// asserts log-probabilities, entropies and accumulated gradients are
// bit-for-bit equal.
func checkBatchMatchesPerSample(t *testing.T, ref, batch BatchPolicy, obs, act, wLogp []float64, wEnt float64) {
	t.Helper()
	n := len(wLogp)
	obsDim, actDim := len(obs)/n, len(act)/n
	logp, ent := make([]float64, n), make([]float64, n)
	batch.ZeroGrad()
	batch.BatchEval(obs, act, n, logp, ent)
	batch.BatchGrad(wLogp, wEnt)

	ref.ZeroGrad()
	for r := 0; r < n; r++ {
		o, a := obs[r*obsDim:(r+1)*obsDim], act[r*actDim:(r+1)*actDim]
		wantLogp := ref.LogProb(o, a)
		_, wantEnt := ref.Backward(o, a, wLogp[r], wEnt)
		if math.Float64bits(logp[r]) != math.Float64bits(wantLogp) {
			t.Fatalf("n=%d logp[%d]: batch %v, per-sample %v", n, r, logp[r], wantLogp)
		}
		if math.Float64bits(ent[r]) != math.Float64bits(wantEnt) {
			t.Fatalf("n=%d ent[%d]: batch %v, per-sample %v", n, r, ent[r], wantEnt)
		}
	}
	gr, gb := ref.Grads(), batch.Grads()
	for pi := range gr {
		for i := range gr[pi] {
			if math.Float64bits(gr[pi][i]) != math.Float64bits(gb[pi][i]) {
				t.Fatalf("n=%d grad[%d][%d]: batch %v, per-sample %v", n, pi, i, gb[pi][i], gr[pi][i])
			}
		}
	}
}

func normals(rng *mathx.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Norm()
	}
	return xs
}

// TestCategoricalBatchMatchesPerSampleBitwise: the minibatch path the PPO
// update runs is the per-sample one, bit for bit, at batch sizes on both
// sides of the kernel's tile widths and after the lazily-sized cache is
// regrown for a larger batch.
func TestCategoricalBatchMatchesPerSampleBitwise(t *testing.T) {
	rng := mathx.NewRNG(311)
	ref := NewCategoricalPolicy(nn.NewMLP(rng, []int{3, 8, 5}, nn.Tanh))
	batch := ref.Clone()
	for _, n := range []int{4, 1, 13, 64} {
		act := make([]float64, n)
		for i := range act {
			act[i] = float64(rng.Intn(5))
		}
		checkBatchMatchesPerSample(t, ref, batch, normals(rng, n*3), act, normals(rng, n), -0.01)
	}
}

// TestGaussianBatchMatchesPerSampleBitwise: same identity for the continuous
// policy, whose BatchGrad also accumulates log-std gradients.
func TestGaussianBatchMatchesPerSampleBitwise(t *testing.T) {
	rng := mathx.NewRNG(313)
	ref := NewGaussianPolicy(nn.NewMLP(rng, []int{2, 6, 2}, nn.Tanh), -0.5)
	batch := ref.Clone()
	for _, n := range []int{9, 2, 64} {
		checkBatchMatchesPerSample(t, ref, batch, normals(rng, n*2), normals(rng, n*2), normals(rng, n), -0.01)
	}
}

// perSampleOnly hides a policy's BatchEval/BatchGrad.
type perSampleOnly struct{ Policy }

// TestNewPPORejectsNonBatchPolicy: the update has one path, so a policy
// without BatchEval/BatchGrad is an error at construction, not a silent
// second implementation.
func TestNewPPORejectsNonBatchPolicy(t *testing.T) {
	rng := mathx.NewRNG(317)
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{2, 4, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{2, 4, 1}, nn.Tanh)
	if _, err := NewPPO(policy, value, DefaultPPOConfig(), rng); err != nil {
		t.Fatalf("batch policy rejected: %v", err)
	}
	_, err := NewPPO(perSampleOnly{policy}, value, DefaultPPOConfig(), rng)
	if err == nil || !strings.Contains(err.Error(), "BatchPolicy") {
		t.Fatalf("NewPPO(per-sample-only policy) error = %v, want a BatchPolicy error", err)
	}
}
