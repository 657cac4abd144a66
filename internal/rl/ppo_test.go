package rl

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

func TestGAEHandComputed(t *testing.T) {
	// Two-step episode, gamma=0.5, lambda=1 (plain discounted advantage).
	b := &rolloutBuffer{}
	b.steps = append(b.steps, transition{reward: 1, value: 0.5})
	b.steps = append(b.steps, transition{reward: 2, value: 0.25, done: true})
	b.computeGAE(0.5, 1.0, 0 /* terminal */)

	// delta1 = 2 + 0 - 0.25 = 1.75 ; adv1 = 1.75
	// delta0 = 1 + 0.5*0.25 - 0.5 = 0.625 ; adv0 = 0.625 + 0.5*1*1.75 = 1.5
	if math.Abs(b.steps[1].advantage-1.75) > 1e-12 {
		t.Errorf("adv1 = %v", b.steps[1].advantage)
	}
	if math.Abs(b.steps[0].advantage-1.5) > 1e-12 {
		t.Errorf("adv0 = %v", b.steps[0].advantage)
	}
	if math.Abs(b.steps[0].ret-(1.5+0.5)) > 1e-12 {
		t.Errorf("ret0 = %v", b.steps[0].ret)
	}
}

func TestGAEBootstrapsLastValue(t *testing.T) {
	b := &rolloutBuffer{}
	b.steps = append(b.steps, transition{reward: 0, value: 0})
	b.computeGAE(1.0, 1.0, 10.0) // non-terminal, next state worth 10
	if math.Abs(b.steps[0].advantage-10) > 1e-12 {
		t.Fatalf("bootstrap advantage = %v, want 10", b.steps[0].advantage)
	}
}

func TestGAEResetsAcrossEpisodes(t *testing.T) {
	// Episode boundary (done=true) must stop advantage propagation.
	b := &rolloutBuffer{}
	b.steps = append(b.steps, transition{reward: 0, value: 0, done: true})
	b.steps = append(b.steps, transition{reward: 100, value: 0, done: true})
	b.computeGAE(1.0, 1.0, 0)
	if b.steps[0].advantage != 0 {
		t.Fatalf("advantage leaked across done: %v", b.steps[0].advantage)
	}
}

func TestNormalizeAdvantages(t *testing.T) {
	b := &rolloutBuffer{}
	for i := 0; i < 100; i++ {
		b.steps = append(b.steps, transition{advantage: float64(i)})
	}
	b.normalizeAdvantages()
	var mean, varSum float64
	for _, s := range b.steps {
		mean += s.advantage
	}
	mean /= 100
	for _, s := range b.steps {
		d := s.advantage - mean
		varSum += d * d
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalized mean %v", mean)
	}
	if std := math.Sqrt(varSum / 100); math.Abs(std-1) > 1e-6 {
		t.Errorf("normalized std %v", std)
	}
}

// banditEnv is a one-step environment: action i yields reward rewards[i].
type banditEnv struct {
	rewards []float64
}

func (b *banditEnv) Reset() []float64 { return []float64{1} }
func (b *banditEnv) Step(a []float64) ([]float64, float64, bool) {
	return []float64{1}, b.rewards[int(a[0])], true
}
func (b *banditEnv) ObservationSize() int { return 1 }
func (b *banditEnv) ActionSpec() ActionSpec {
	return ActionSpec{Discrete: true, N: len(b.rewards)}
}

func TestPPOLearnsBandit(t *testing.T) {
	rng := mathx.NewRNG(42)
	env := &banditEnv{rewards: []float64{0, 1, 0.2}}
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 8, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 128
	cfg.LR = 0.01
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Train(env, 30)
	last := stats[len(stats)-1]
	if last.MeanEpReward < 0.9 {
		t.Fatalf("PPO failed bandit: mean episode reward %v", last.MeanEpReward)
	}
	if int(policy.Mode([]float64{1})[0]) != 1 {
		t.Fatal("mode action is not the best arm")
	}
}

// targetEnv rewards continuous actions near a fixed target; episodes last
// `horizon` steps. Observation is a constant.
type targetEnv struct {
	target  float64
	horizon int
	step    int
}

func (e *targetEnv) Reset() []float64 { e.step = 0; return []float64{1} }
func (e *targetEnv) Step(a []float64) ([]float64, float64, bool) {
	e.step++
	d := a[0] - e.target
	return []float64{1}, -d * d, e.step >= e.horizon
}
func (e *targetEnv) ObservationSize() int { return 1 }
func (e *targetEnv) ActionSpec() ActionSpec {
	return ActionSpec{Dim: 1, Low: []float64{-5}, High: []float64{5}}
}

func TestPPOLearnsContinuousTarget(t *testing.T) {
	rng := mathx.NewRNG(77)
	env := &targetEnv{target: 1.5, horizon: 8}
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 256
	cfg.LR = 0.005
	cfg.EntropyCoef = 0.0
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.Train(env, 60)
	mode := policy.Mode([]float64{1})[0]
	if math.Abs(mode-1.5) > 0.35 {
		t.Fatalf("learned mean %v, want ~1.5", mode)
	}
}

func TestPPOStatsSane(t *testing.T) {
	rng := mathx.NewRNG(5)
	env := &banditEnv{rewards: []float64{0, 1}}
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 2}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 64
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Train(env, 1)[0]
	if st.Steps != 64 {
		t.Errorf("Steps = %d", st.Steps)
	}
	if st.Episodes != 64 { // bandit episodes are 1 step each
		t.Errorf("Episodes = %d", st.Episodes)
	}
	if st.Entropy < 0 || st.Entropy > math.Log(2)+1e-9 {
		t.Errorf("Entropy = %v", st.Entropy)
	}
	if st.ClipFraction < 0 || st.ClipFraction > 1 {
		t.Errorf("ClipFraction = %v", st.ClipFraction)
	}
	if st.GradStepCount == 0 {
		t.Error("no gradient steps")
	}
}

func TestPPOConfigValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 2}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 1}, nn.Tanh)
	bad := DefaultPPOConfig()
	bad.Gamma = 1.5
	if _, err := NewPPO(policy, value, bad, rng); err == nil {
		t.Fatal("accepted gamma > 1")
	}
	bad = DefaultPPOConfig()
	bad.RolloutSteps = 0
	if _, err := NewPPO(policy, value, bad, rng); err == nil {
		t.Fatal("accepted zero rollout")
	}
	wrongValue := nn.NewMLP(rng, []int{1, 2}, nn.Tanh)
	if _, err := NewPPO(policy, wrongValue, DefaultPPOConfig(), rng); err == nil {
		t.Fatal("accepted non-scalar value net")
	}
}

// TestEvaluateDeterministic: deterministic evaluation — RunEpisode with
// stochastic false and no RNG — plays the policy's mode every episode.
func TestEvaluateDeterministic(t *testing.T) {
	rng := mathx.NewRNG(3)
	env := &banditEnv{rewards: []float64{0.3, 0.9}}
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 2}, nn.Identity))
	mode := int(policy.Mode([]float64{1})[0])
	want := env.rewards[mode]
	for ep := 0; ep < 10; ep++ {
		total, length := RunEpisode(policy, env, nil, false, nil)
		if total != want || length != 1 {
			t.Fatalf("episode %d: reward %v over %d steps, want %v over 1", ep, total, length, want)
		}
	}
}

func TestPPODeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		rng := mathx.NewRNG(123)
		env := &banditEnv{rewards: []float64{0, 1, 0.5}}
		policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
		value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 32
		p, _ := NewPPO(policy, value, cfg, rng)
		st := p.Train(env, 3)
		return st[2].MeanEpReward
	}
	if run() != run() {
		t.Fatal("PPO training is not deterministic for a fixed seed")
	}
}

// resetCountEnv counts resets, to observe where a lane abandons an episode.
type resetCountEnv struct {
	targetEnv
	resets int
}

func (e *resetCountEnv) Reset() []float64 { e.resets++; return e.targetEnv.Reset() }

// TestPPOEnvSwitchResets: an iteration boundary leaves an episode pending
// (50 steps of horizon-8 episodes), and the pending episode belongs to the
// env it was collected from. Continuing on the same env resumes it; a
// different env — and coming back to the first one later — starts from a
// fresh reset instead of adopting the other env's observation.
func TestPPOEnvSwitchResets(t *testing.T) {
	p, _, _ := newCkptFixture(t, 91, 50)
	envA := &resetCountEnv{targetEnv: targetEnv{target: 1.5, horizon: 8}}
	envB := &resetCountEnv{targetEnv: targetEnv{target: -1, horizon: 8}}
	// Resets in one iteration: one per completed episode, plus one up front
	// unless a pending episode is resumed.
	for i, c := range []struct {
		env     *resetCountEnv
		resumes bool
	}{{envA, false}, {envA, true}, {envB, false}, {envA, false}} {
		before := c.env.resets
		stats := p.Train(c.env, 1)[0]
		want := stats.Episodes + 1
		if c.resumes {
			want = stats.Episodes
		}
		if got := c.env.resets - before; got != want {
			t.Fatalf("iteration %d: %d resets for %d completed episodes, want %d", i, got, stats.Episodes, want)
		}
	}
}

// TestPPOValueLossReportsOptimizedObjective asserts the reported ValueLoss
// is the quantity the optimizer descends — c_V·0.5·(V−ret)² — by checking
// that halving ValueCoef exactly halves the first iteration's reported
// ValueLoss. One epoch over a single full-buffer minibatch means every value
// forward pass sees the identical pre-update parameters in both runs, and
// ValueCoef ∈ {0.5, 1.0} (powers of two) keeps the scaling exact in floating
// point, so the relationship holds bitwise, not just approximately.
func TestPPOValueLossReportsOptimizedObjective(t *testing.T) {
	run := func(coef float64) float64 {
		rng := mathx.NewRNG(9)
		env := &banditEnv{rewards: []float64{0, 1, 0.5}}
		policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
		value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 32
		cfg.Epochs = 1
		cfg.MinibatchSize = 32
		cfg.ValueCoef = coef
		p, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		return p.Train(env, 1)[0].ValueLoss
	}
	half, full := run(0.5), run(1.0)
	if full <= 0 {
		t.Fatalf("degenerate fixture: ValueLoss %v", full)
	}
	if half != 0.5*full {
		t.Fatalf("ValueLoss not scaled by ValueCoef: coef=0.5 gives %v, coef=1.0 gives %v", half, full)
	}
}
