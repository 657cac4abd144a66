package rl

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// gemmRelErr returns |a−b| / max(1, |a|, |b|).
func gemmRelErr(a, b float64) float64 {
	d := math.Abs(a - b)
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkParamsClose asserts two parameter sets agree to tol relative error.
func checkParamsClose(t *testing.T, a, b [][]float64, tol float64, what string) {
	t.Helper()
	for pi := range a {
		for i := range a[pi] {
			if e := gemmRelErr(a[pi][i], b[pi][i]); e > tol {
				t.Fatalf("%s[%d][%d]: %v vs %v (rel err %v)", what, pi, i, a[pi][i], b[pi][i], e)
			}
		}
	}
}

// TestCategoricalGEMMMatchesBatchEval: a GEMM-mode policy's BatchEval and
// BatchGrad must agree with the default row-loop mode to rounding, including
// after the lazily-sized cache is regrown for a larger batch.
func TestCategoricalGEMMMatchesBatchEval(t *testing.T) {
	rng := mathx.NewRNG(311)
	ref := NewCategoricalPolicy(nn.NewMLP(rng, []int{3, 8, 4}, nn.Tanh))
	g := ref.Clone()
	g.SetBatchGEMM(true)

	// Two batch sizes: the second forces ensureBatch to regrow the cache,
	// which must preserve GEMM mode.
	for _, n := range []int{4, 12} {
		obs := make([]float64, n*3)
		act := make([]float64, n)
		for i := range obs {
			obs[i] = rng.Norm()
		}
		for i := range act {
			act[i] = float64(rng.Intn(4))
		}
		logpRef := make([]float64, n)
		entRef := make([]float64, n)
		logpG := make([]float64, n)
		entG := make([]float64, n)
		wLogp := make([]float64, n)
		for i := range wLogp {
			wLogp[i] = rng.Norm()
		}

		ref.ZeroGrad()
		ref.BatchEval(obs, act, n, logpRef, entRef)
		ref.BatchGrad(wLogp, -0.01)

		g.ZeroGrad()
		g.BatchEval(obs, act, n, logpG, entG)
		g.BatchGrad(wLogp, -0.01)

		for i := 0; i < n; i++ {
			if e := gemmRelErr(logpRef[i], logpG[i]); e > 1e-9 {
				t.Fatalf("n=%d logp[%d]: %v vs %v", n, i, logpRef[i], logpG[i])
			}
			if e := gemmRelErr(entRef[i], entG[i]); e > 1e-9 {
				t.Fatalf("n=%d ent[%d]: %v vs %v", n, i, entRef[i], entG[i])
			}
		}
		checkParamsClose(t, ref.Grads(), g.Grads(), 1e-9, "grad")
	}
}

// TestGaussianGEMMMatchesBatchEval: same equivalence for the continuous
// policy, whose BatchGrad also accumulates log-std gradients.
func TestGaussianGEMMMatchesBatchEval(t *testing.T) {
	rng := mathx.NewRNG(313)
	ref := NewGaussianPolicy(nn.NewMLP(rng, []int{2, 6, 2}, nn.Tanh), -0.5)
	g := ref.Clone()
	g.SetBatchGEMM(true)

	const n = 9
	obs := make([]float64, n*2)
	act := make([]float64, n*2)
	for i := range obs {
		obs[i] = rng.Norm()
		act[i] = rng.Norm()
	}
	logpRef := make([]float64, n)
	entRef := make([]float64, n)
	logpG := make([]float64, n)
	entG := make([]float64, n)
	wLogp := make([]float64, n)
	for i := range wLogp {
		wLogp[i] = rng.Norm()
	}

	ref.ZeroGrad()
	ref.BatchEval(obs, act, n, logpRef, entRef)
	ref.BatchGrad(wLogp, -0.01)

	g.ZeroGrad()
	g.BatchEval(obs, act, n, logpG, entG)
	g.BatchGrad(wLogp, -0.01)

	for i := 0; i < n; i++ {
		if e := gemmRelErr(logpRef[i], logpG[i]); e > 1e-9 {
			t.Fatalf("logp[%d]: %v vs %v", i, logpRef[i], logpG[i])
		}
		if e := gemmRelErr(entRef[i], entG[i]); e > 1e-9 {
			t.Fatalf("ent[%d]: %v vs %v", i, entRef[i], entG[i])
		}
	}
	checkParamsClose(t, ref.Grads(), g.Grads(), 1e-9, "grad")
}

// newGEMMPair builds two identically-seeded PPO trainers, one default and
// one with cfg.GEMM set.
func newGEMMPair(gemm bool) (*PPO, *CategoricalPolicy, *nn.MLP) {
	rng := mathx.NewRNG(123)
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 6, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 6, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 64
	cfg.GEMM = gemm
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		panic(err)
	}
	return p, policy, value
}

// TestPPOGEMMCloseToDefault: one PPO iteration from identical seeds must
// produce near-identical stats and parameters whether the update runs through
// the row loops or the GEMM kernels — rollout collection consumes the same
// RNG stream, so the only divergence is floating-point summation order.
func TestPPOGEMMCloseToDefault(t *testing.T) {
	ref, refPol, refVal := newGEMMPair(false)
	g, gPol, gVal := newGEMMPair(true)
	env1 := &banditEnv{rewards: []float64{0, 1, 0.5}}
	env2 := &banditEnv{rewards: []float64{0, 1, 0.5}}

	s1 := ref.TrainIteration(env1)
	s2 := g.TrainIteration(env2)

	if s1.Steps != s2.Steps || s1.Episodes != s2.Episodes {
		t.Fatalf("rollouts diverge: %+v vs %+v", s1, s2)
	}
	for _, c := range [][3]float64{
		{s1.PolicyLoss, s2.PolicyLoss, 1e-6},
		{s1.ValueLoss, s2.ValueLoss, 1e-6},
		{s1.Entropy, s2.Entropy, 1e-6},
	} {
		if e := gemmRelErr(c[0], c[1]); e > c[2] {
			t.Fatalf("stat diverges: %v vs %v (rel err %v)", c[0], c[1], e)
		}
	}
	checkParamsClose(t, refPol.Params(), gPol.Params(), 1e-7, "policy param")
	checkParamsClose(t, refVal.Params(), gVal.Params(), 1e-7, "value param")
}

// TestPPOGEMMLearnsBandit: the GEMM path must actually train, not just match
// one step.
func TestPPOGEMMLearnsBandit(t *testing.T) {
	rng := mathx.NewRNG(42)
	env := &banditEnv{rewards: []float64{0, 1, 0.2}}
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 8, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 128
	cfg.LR = 0.01
	cfg.GEMM = true
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Train(env, 30)
	if last := stats[len(stats)-1]; last.MeanEpReward < 0.9 {
		t.Fatalf("GEMM PPO failed bandit: mean episode reward %v", last.MeanEpReward)
	}
}

// TestVecGEMMReproducible: multi-worker parallel collection with the GEMM
// update must stay deterministic for a fixed seed. Run under -race this also
// exercises the GEMM kernels alongside the VecRunner worker pool.
func TestVecGEMMReproducible(t *testing.T) {
	run := func() ([]IterStats, uint64) {
		rng := mathx.NewRNG(123)
		policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
		value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 64
		cfg.GEMM = true
		p, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		factory := func(worker int) Env {
			return &banditEnv{rewards: []float64{0, 1, 0.5}}
		}
		stats, err := p.TrainParallel(factory, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return stats, fingerprint(append(policy.Params(), value.Params()...), stats)
	}
	s1, f1 := run()
	s2, f2 := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("iter %d stats differ across runs:\n%+v\n%+v", i, s1[i], s2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("GEMM parallel training not reproducible: %#x vs %#x", f1, f2)
	}
}
