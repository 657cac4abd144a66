package rl

import (
	"hash/fnv"
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// fingerprint folds the exact bit patterns of trained parameters and iteration
// statistics into a single FNV-1a hash. Any float that differs by even one ULP
// changes the digest, making this a bitwise-identity check.
func fingerprint(params [][]float64, stats []IterStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	wf := func(f float64) {
		u := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range params {
		for _, v := range p {
			wf(v)
		}
	}
	for _, st := range stats {
		wf(float64(st.Steps))
		wf(float64(st.Episodes))
		wf(st.MeanEpReward)
		wf(st.MeanStepRew)
		wf(st.PolicyLoss)
		wf(st.ValueLoss)
		wf(st.Entropy)
		wf(st.ClipFraction)
		wf(st.ApproxKL)
		wf(float64(st.GradStepCount))
	}
	return h.Sum64()
}

func goldenCategoricalPPO() uint64 {
	rng := mathx.NewRNG(123)
	env := &banditEnv{rewards: []float64{0, 1, 0.5}}
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 32
	p, _ := NewPPO(policy, value, cfg, rng)
	stats := p.Train(env, 3)
	return fingerprint(append(policy.Params(), value.Params()...), stats)
}

func goldenGaussianPPO() uint64 {
	rng := mathx.NewRNG(77)
	env := &targetEnv{target: 1.5, horizon: 8}
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 64
	cfg.LR = 0.005
	p, _ := NewPPO(policy, value, cfg, rng)
	stats := p.Train(env, 3)
	return fingerprint(append(policy.Params(), value.Params()...), stats)
}

// The constants below were captured from the single-threaded implementation
// before the parallel rollout engine and batched NN hot path landed. They pin
// the trainers to bit-for-bit identical behaviour: any change to RNG
// consumption order, gradient accumulation order, or per-sample arithmetic
// shows up as a digest mismatch.
//
// Recaptured once when the reported ValueLoss stat was fixed to carry the
// ValueCoef scaling of the optimized objective (the trained parameters are
// bitwise unchanged — the stat is pure bookkeeping and feeds no gradient;
// only the IterStats half of the hash moved).
const (
	goldenCategoricalPPODigest = 0x500bd2778f7f1049
	goldenGaussianPPODigest    = 0xbe00feb3a2fb831b
)

func TestPPOBitwiseGolden(t *testing.T) {
	if got := goldenCategoricalPPO(); got != goldenCategoricalPPODigest {
		t.Errorf("categorical PPO digest %#016x, want %#016x (bitwise drift from pre-parallel baseline)", got, uint64(goldenCategoricalPPODigest))
	}
	if got := goldenGaussianPPO(); got != goldenGaussianPPODigest {
		t.Errorf("gaussian PPO digest %#016x, want %#016x (bitwise drift from pre-parallel baseline)", got, uint64(goldenGaussianPPODigest))
	}
}
