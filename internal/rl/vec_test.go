package rl

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// newVecFixture builds a PPO trainer over the bandit env with a fixed seed.
func newVecFixture(rolloutSteps int) (*PPO, *CategoricalPolicy, *nn.MLP, EnvFactory) {
	rng := mathx.NewRNG(123)
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = rolloutSteps
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		panic(err)
	}
	factory := func(worker int) Env {
		return &banditEnv{rewards: []float64{0, 1, 0.5}}
	}
	return p, policy, value, factory
}

// TestVecW1BitwiseMatchesSequential: a 1-worker VecRunner must reproduce the
// sequential trainer exactly — same RNG stream, same stats, same parameters.
func TestVecW1BitwiseMatchesSequential(t *testing.T) {
	seq, seqPol, seqVal, _ := newVecFixture(32)
	env := &banditEnv{rewards: []float64{0, 1, 0.5}}
	seqStats := seq.Train(env, 3)

	par, parPol, parVal, factory := newVecFixture(32)
	parStats, err := par.TrainParallel(factory, 1, 3)
	if err != nil {
		t.Fatal(err)
	}

	for i := range seqStats {
		if seqStats[i] != parStats[i] {
			t.Fatalf("iter %d stats diverge:\nseq %+v\npar %+v", i, seqStats[i], parStats[i])
		}
	}
	fp1 := fingerprint(append(seqPol.Params(), seqVal.Params()...), seqStats)
	fp2 := fingerprint(append(parPol.Params(), parVal.Params()...), parStats)
	if fp1 != fp2 {
		t.Fatalf("W=1 parameters diverge from sequential: %#x vs %#x", fp1, fp2)
	}
}

// TestVecW1InterleavesWithSequential: alternating VecRunner and sequential
// iterations must share pending-episode state seamlessly.
func TestVecW1InterleavesWithSequential(t *testing.T) {
	seq, seqPol, seqVal, _ := newVecFixture(32)
	env := &banditEnv{rewards: []float64{0, 1, 0.5}}
	seqStats := seq.Train(env, 2)

	mix, mixPol, mixVal, _ := newVecFixture(32)
	v, err := NewVecRunner(mix, func(int) Env { return env }, 1)
	if err != nil {
		t.Fatal(err)
	}
	vecStats, err := v.TrainIteration()
	if err != nil {
		t.Fatal(err)
	}
	mixStats := []IterStats{vecStats, mix.Train(env, 1)[0]}

	for i := range seqStats {
		if seqStats[i] != mixStats[i] {
			t.Fatalf("iter %d stats diverge:\nseq %+v\nmix %+v", i, seqStats[i], mixStats[i])
		}
	}
	fp1 := fingerprint(append(seqPol.Params(), seqVal.Params()...), nil)
	fp2 := fingerprint(append(mixPol.Params(), mixVal.Params()...), nil)
	if fp1 != fp2 {
		t.Fatal("interleaved vec/sequential training diverged from pure sequential")
	}
}

// TestVecW4Reproducible: the same seed with W=4 must give identical stats and
// parameters across runs, regardless of goroutine scheduling.
func TestVecW4Reproducible(t *testing.T) {
	run := func() ([]IterStats, uint64) {
		p, pol, val, factory := newVecFixture(64)
		stats, err := p.TrainParallel(factory, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		return stats, fingerprint(append(pol.Params(), val.Params()...), stats)
	}
	s1, f1 := run()
	s2, f2 := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("iter %d stats differ across runs:\n%+v\n%+v", i, s1[i], s2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("W=4 training not reproducible: %#x vs %#x", f1, f2)
	}
}

// TestVecW4CollectsFullRollout: worker shares must sum to RolloutSteps even
// when the split is uneven.
func TestVecW4CollectsFullRollout(t *testing.T) {
	p, _, _, factory := newVecFixture(70) // 70 = 18+18+17+17
	stats, err := p.TrainParallel(factory, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Steps != 70 {
		t.Fatalf("Steps = %d, want 70", stats[0].Steps)
	}
	if stats[0].Episodes != 70 { // bandit: every step ends an episode
		t.Fatalf("Episodes = %d, want 70", stats[0].Episodes)
	}
}

// TestVecZeroStepWorker: more workers than rollout steps leaves some workers
// with zero steps; stats must stay finite (the MeanStepRew guard) and the
// collected data must still cover the full rollout.
func TestVecZeroStepWorker(t *testing.T) {
	p, _, _, factory := newVecFixture(2)
	stats, err := p.TrainParallel(factory, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Steps != 2 {
			t.Fatalf("Steps = %d, want 2", st.Steps)
		}
		if math.IsNaN(st.MeanStepRew) || math.IsInf(st.MeanStepRew, 0) {
			t.Fatalf("MeanStepRew not finite: %v", st.MeanStepRew)
		}
		if math.IsNaN(st.MeanEpReward) {
			t.Fatalf("MeanEpReward is NaN")
		}
	}
}

// TestVecRunnerValidation: invalid constructions must error, not panic.
func TestVecRunnerValidation(t *testing.T) {
	p, _, _, factory := newVecFixture(8)
	if _, err := NewVecRunner(p, factory, 0); err == nil {
		t.Error("accepted workers=0")
	}
	if _, err := NewVecRunner(p, nil, 2); err == nil {
		t.Error("accepted nil factory")
	}
	if _, err := NewVecRunner(p, func(int) Env { return nil }, 2); err == nil {
		t.Error("accepted nil env from factory")
	}
}

// TestVecWeightSync: after an update, every worker clone must hold the
// trainer's current parameters.
func TestVecWeightSync(t *testing.T) {
	p, _, _, factory := newVecFixture(32)
	v, err := NewVecRunner(p, factory, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.TrainIteration(); err != nil {
		t.Fatal(err)
	}
	main := p.Policy.Params()
	for wi, w := range v.lanes {
		for gi, g := range w.policy.Params() {
			for i := range g {
				if g[i] != main[gi][i] {
					t.Fatalf("worker %d param group %d idx %d out of sync after update", wi, gi, i)
				}
			}
		}
	}
}

// TestClonePolicyIndependence: clones must not share parameters or scratch
// with the original and must preserve hyperparameters.
func TestClonePolicyIndependence(t *testing.T) {
	rng := mathx.NewRNG(31)
	obs := []float64{0.4}

	cat := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
	cc, err := ClonePolicy(cat)
	if err != nil {
		t.Fatal(err)
	}
	if cat.LogProb(obs, []float64{1}) != cc.LogProb(obs, []float64{1}) {
		t.Fatal("categorical clone differs before mutation")
	}
	cat.Params()[0][0] += 0.5
	if cat.LogProb(obs, []float64{1}) == cc.LogProb(obs, []float64{1}) {
		t.Fatal("categorical clone shares parameters")
	}

	g := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 4, 2}, nn.Tanh), -0.7)
	g.MaxLogStd = -0.2
	gcAny, err := ClonePolicy(g)
	if err != nil {
		t.Fatal(err)
	}
	gc := gcAny.(*GaussianPolicy)
	if gc.MaxLogStd != -0.2 {
		t.Fatal("gaussian clone lost MaxLogStd")
	}
	act := []float64{0.1, -0.3}
	if g.LogProb(obs, act) != gc.LogProb(obs, act) {
		t.Fatal("gaussian clone differs before mutation")
	}
	g.LogStd()[0] = 1.5
	if g.LogProb(obs, act) == gc.LogProb(obs, act) {
		t.Fatal("gaussian clone shares logStd")
	}

	type opaque struct{ Policy }
	if _, err := ClonePolicy(opaque{cat}); err == nil {
		t.Fatal("expected error for uncloneable policy type")
	}
}

// TestVecGaussianReproducible exercises the pool with the continuous policy
// (worker clones carry logStd and bounds).
func TestVecGaussianReproducible(t *testing.T) {
	run := func() uint64 {
		rng := mathx.NewRNG(77)
		policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
		value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 48
		p, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := p.TrainParallel(func(int) Env {
			return &targetEnv{target: 1.5, horizon: 8}
		}, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(append(policy.Params(), value.Params()...), stats)
	}
	if run() != run() {
		t.Fatal("gaussian W=3 training not reproducible")
	}
}
