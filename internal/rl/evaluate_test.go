package rl

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// scriptedEnv deterministically replays a fixed episode schedule: its k-th
// episode (locally) is global episode start+k·stride, whose total reward is
// rewards[g] spread over lens[g] steps. A (start=0, stride=1) instance is
// exactly what sequential Evaluate sees; a (start=w, stride=W) instance sees
// precisely the episode subsequence ParallelEvaluate assigns to worker w.
// Episodes differ from each other, so any merge-order or assignment mistake
// in the parallel path changes MeanReward/StdReward bitwise.
type scriptedEnv struct {
	rewards []float64
	lens    []int
	start   int
	stride  int
	k       int // local episode counter
	step    int
	cur     int // global episode index of the running episode
}

func (e *scriptedEnv) Reset() []float64 {
	e.cur = e.start + e.k*e.stride
	e.k++
	e.step = 0
	return []float64{1}
}

func (e *scriptedEnv) Step(a []float64) ([]float64, float64, bool) {
	e.step++
	n := e.lens[e.cur]
	return []float64{1}, e.rewards[e.cur] / float64(n), e.step >= n
}

func (e *scriptedEnv) ObservationSize() int { return 1 }
func (e *scriptedEnv) ActionSpec() ActionSpec {
	return ActionSpec{Discrete: true, N: 2}
}

func scriptedFixture(episodes int) ([]float64, []int) {
	rewards := make([]float64, episodes)
	lens := make([]int, episodes)
	rng := mathx.NewRNG(2024)
	for i := range rewards {
		rewards[i] = rng.Float64()*4 - 1 // irregular, FP-unfriendly values
		lens[i] = 1 + int(rng.Uint64()%7)
	}
	return rewards, lens
}

func testEvalPolicy() Policy {
	return NewCategoricalPolicy(nn.NewMLP(mathx.NewRNG(7), []int{1, 4, 2}, nn.Tanh))
}

// TestParallelEvaluateGolden pins the tentpole determinism contract: for
// W ∈ {1, 4} (and a non-divisor worker count for good measure),
// ParallelEvaluate must return EvalStats bitwise identical to the sequential
// Evaluate over the same global episode schedule.
func TestParallelEvaluateGolden(t *testing.T) {
	const episodes = 23
	rewards, lens := scriptedFixture(episodes)
	policy := testEvalPolicy()

	want := Evaluate(policy, &scriptedEnv{rewards: rewards, lens: lens, stride: 1}, episodes)
	for _, workers := range []int{1, 3, 4} {
		envs := make([]Env, workers)
		for w := range envs {
			envs[w] = &scriptedEnv{rewards: rewards, lens: lens, start: w, stride: workers}
		}
		got, err := ParallelEvaluate(policy, envs, episodes, workers)
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("W=%d: stats diverged from sequential:\n got  %+v\n want %+v", workers, got, want)
		}
	}
	if want.StdReward == 0 {
		t.Fatal("fixture episodes are all identical; the identity check proves nothing")
	}
}

// TestParallelEvaluateReplicaEnvs covers the documented contract case:
// identical replica envs (episodes independent of instance and history)
// give W>1 results bitwise equal to the plain sequential call.
func TestParallelEvaluateReplicaEnvs(t *testing.T) {
	policy := testEvalPolicy()
	want := Evaluate(policy, &banditEnv{rewards: []float64{0.3, 0.9}}, 10)
	envs := make([]Env, 4)
	for w := range envs {
		envs[w] = &banditEnv{rewards: []float64{0.3, 0.9}}
	}
	got, err := ParallelEvaluate(policy, envs, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replica-env parallel eval diverged: %+v vs %+v", got, want)
	}
}

// TestParallelEvaluateClampsWorkers: more workers than envs or episodes must
// degrade gracefully rather than index out of range.
func TestParallelEvaluateClampsWorkers(t *testing.T) {
	policy := testEvalPolicy()
	rewards, lens := scriptedFixture(3)
	envs := []Env{
		&scriptedEnv{rewards: rewards, lens: lens, start: 0, stride: 2},
		&scriptedEnv{rewards: rewards, lens: lens, start: 1, stride: 2},
	}
	want := Evaluate(policy, &scriptedEnv{rewards: rewards, lens: lens, stride: 1}, 3)
	got, err := ParallelEvaluate(policy, envs, 3, 8) // clamps to len(envs)=2
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("clamped eval diverged: %+v vs %+v", got, want)
	}
}

type uncloneablePolicy struct{ Policy }

func TestParallelEvaluateErrors(t *testing.T) {
	policy := testEvalPolicy()
	env := Env(&banditEnv{rewards: []float64{0, 1}})
	if _, err := ParallelEvaluate(policy, nil, 4, 2); err == nil {
		t.Error("no error for empty envs")
	}
	if _, err := ParallelEvaluate(policy, []Env{env}, 0, 1); err == nil {
		t.Error("no error for episodes=0")
	}
	if _, err := ParallelEvaluate(policy, []Env{env}, 4, 0); err == nil {
		t.Error("no error for workers=0")
	}
	if _, err := ParallelEvaluate(policy, []Env{env, nil}, 4, 2); err == nil {
		t.Error("no error for nil env")
	}
	wrapped := uncloneablePolicy{policy}
	if _, err := ParallelEvaluate(wrapped, []Env{env, env}, 4, 2); err == nil {
		t.Error("no error for uncloneable policy with workers > 1")
	}
	// …but an uncloneable policy is fine single-threaded.
	if _, err := ParallelEvaluate(wrapped, []Env{env}, 4, 1); err != nil {
		t.Errorf("uncloneable policy rejected at workers=1: %v", err)
	}
}

// TestEvaluateEmptyEpisodes documents the zero-value contract of the
// sequential path.
func TestEvaluateEmptyEpisodes(t *testing.T) {
	st := Evaluate(testEvalPolicy(), &banditEnv{rewards: []float64{0, 1}}, 0)
	if st != (EvalStats{}) {
		t.Fatalf("episodes=0 returned non-zero stats: %+v", st)
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
		return p.TrainIteration(env).ValueLoss
	}
	half, full := run(0.5), run(1.0)
	if full <= 0 {
		t.Fatalf("degenerate fixture: ValueLoss %v", full)
	}
	if half != 0.5*full {
		t.Fatalf("ValueLoss not scaled by ValueCoef: coef=0.5 gives %v, coef=1.0 gives %v", half, full)
	}
}
