package rl

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// reusedObsEnv is targetEnv observing its step count. With reuse set it
// returns one buffer and NaN-fills the slice it returned last at the start
// of every Reset and Step, so a caller that reads an observation after the
// env's next call — which the Env contract forbids — reads NaN or a later
// step's value.
type reusedObsEnv struct {
	targetEnv
	reuse bool
	buf   []float64
}

func newReusedObsEnv(reuse bool) *reusedObsEnv {
	return &reusedObsEnv{targetEnv: *newCkptEnv(), reuse: reuse}
}

func (e *reusedObsEnv) poison() {
	for i := range e.buf {
		e.buf[i] = math.NaN()
	}
}

func (e *reusedObsEnv) observe() []float64 {
	x := float64(e.step) / float64(e.horizon)
	if !e.reuse {
		return []float64{x}
	}
	e.buf = append(e.buf[:0], x)
	return e.buf
}

func (e *reusedObsEnv) Reset() []float64 {
	e.poison()
	e.targetEnv.Reset()
	return e.observe()
}

func (e *reusedObsEnv) Step(a []float64) ([]float64, float64, bool) {
	e.poison()
	_, r, done := e.targetEnv.Step(a)
	return e.observe(), r, done
}

// TestEnvOwnsObservation pins the Env ownership rule: an environment may
// return one reused observation buffer, valid only until its next Reset or
// Step, and every driver — rl.Train at one and at four lanes, Lane.Collect
// (the dist path) and RunEpisode — trains exactly as it does on fresh slices.
func TestEnvOwnsObservation(t *testing.T) {
	problem := func(reuse bool) Problem {
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 50
		cfg.LR = 0.005
		return Problem{
			Nets: func(rng *mathx.RNG) (Policy, *nn.MLP) {
				return NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5), nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
			},
			Config: cfg,
			Envs: func(int, *mathx.RNG) (EnvFactory, error) {
				return func(int) Env { return newReusedObsEnv(reuse) }, nil
			},
		}
	}
	const iters = 3
	train := func(reuse bool, lanes int) uint64 {
		p, stats, err := Train(problem(reuse), TrainOptions{Iterations: iters, Lanes: lanes}, mathx.NewRNG(91))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(append(p.Policy.Params(), p.Value.Params()...), stats)
	}
	collect := func(reuse bool) uint64 {
		const lanes = 2
		pr := problem(reuse)
		p, factory, err := NewTrainer(pr, lanes, mathx.NewRNG(92))
		if err != nil {
			t.Fatal(err)
		}
		states, err := p.NewLaneStates(factory, lanes)
		if err != nil {
			t.Fatal(err)
		}
		steps, err := p.LaneSteps(lanes)
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]*Lane, lanes)
		for i := range ls {
			if ls[i], err = pr.Lane(i, lanes); err != nil {
				t.Fatal(err)
			}
		}
		stats := runDistSim(t, p, ls, states, steps, iters)
		return fingerprint(append(p.Policy.Params(), p.Value.Params()...), stats)
	}
	episode := func(reuse bool) [2]float64 {
		rng := mathx.NewRNG(93)
		policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
		total, n := RunEpisode(policy, newReusedObsEnv(reuse), rng, true, nil)
		return [2]float64{total, float64(n)}
	}

	for _, l := range []int{1, 4} {
		if fresh, reused := train(false, l), train(true, l); fresh != reused {
			t.Errorf("Train Lanes=%d: reused buffer %#x, fresh slices %#x", l, reused, fresh)
		}
	}
	if fresh, reused := collect(false), collect(true); fresh != reused {
		t.Errorf("Lane.Collect: reused buffer %#x, fresh slices %#x", reused, fresh)
	}
	if fresh, reused := episode(false), episode(true); fresh != reused {
		t.Errorf("RunEpisode: reused buffer %v, fresh slices %v", reused, fresh)
	}
}
