package rl

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/par"
)

// TestModeAllocFree: Mode returns the policy's action scratch, as Sample
// does, so a deterministic decision allocates nothing once the cache is warm.
func TestModeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are enforced in the uninstrumented build")
	}
	rng := mathx.NewRNG(41)
	obs := []float64{0.3, -0.7}
	for _, p := range []Policy{
		NewCategoricalPolicy(nn.NewMLP(rng, []int{2, 8, 4}, nn.Tanh)),
		NewGaussianPolicy(nn.NewMLP(rng, []int{2, 8, 3}, nn.Tanh), -0.5),
	} {
		p.Mode(obs)
		if n := testing.AllocsPerRun(100, func() { p.Mode(obs) }); n != 0 {
			t.Errorf("%T.Mode: %v allocs, want 0", p, n)
		}
	}
}

// TestUpdateAllocsOnlyFanOut: the epoch permutations are drawn into storage
// the trainer keeps and every minibatch row is staged in sized scratch, so a
// second update on the same buffer allocates nothing beyond what par.Run's
// two-way fork of a closure over the trainer and the two halves' sums costs.
func TestUpdateAllocsOnlyFanOut(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are enforced in the uninstrumented build")
	}
	rng := mathx.NewRNG(6)
	policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))
	value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 64
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.sequential(&banditEnv{rewards: []float64{0, 1, 0.5}}).lanes[0].collect(cfg.RolloutSteps)
	var st IterStats
	p.update(&st)
	got := testing.AllocsPerRun(20, func() { p.update(&st) })
	fork := testing.AllocsPerRun(20, func() {
		var a, b int
		par.Run(2, func(w int) error {
			if w == 0 {
				a = p.iter
			} else {
				b = p.iter
			}
			return nil
		})
		_, _ = a, b
	})
	if got > fork {
		t.Errorf("second update: %v allocs, want at most the fork's %v", got, fork)
	}
}

// stillEnv is an environment that allocates nothing: a constant
// observation in one buffer, and episodes of five steps.
type stillEnv struct {
	obs  [1]float64
	step int
}

func (e *stillEnv) Reset() []float64 { e.step = 0; return e.obs[:] }
func (e *stillEnv) Step(a []float64) ([]float64, float64, bool) {
	e.step++
	return e.obs[:], -a[0] * a[0], e.step >= 5
}
func (e *stillEnv) ObservationSize() int   { return 1 }
func (e *stillEnv) ActionSpec() ActionSpec { return ActionSpec{Dim: 1} }

// TestLaneCollectAllocFree: once its buffer and its record of the pending
// episode's actions have grown, a lane's rollout and GAE allocate nothing —
// recording an episode for a checkpoint costs the hot path no allocation.
func TestLaneCollectAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are enforced in the uninstrumented build")
	}
	rng := mathx.NewRNG(8)
	p, err := NewPPO(NewGaussianPolicy(nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh), -0.5), nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh), DefaultPPOConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	lane := p.sequential(&stillEnv{}).lanes[0]
	collect := func() {
		lane.collect(63) // ends mid-episode
		lane.buf.reset()
	}
	collect()
	if n := testing.AllocsPerRun(20, collect); n != 0 {
		t.Fatalf("a warm collect allocates %v times, want 0", n)
	}
	if env := lane.env.(*stillEnv); len(lane.acts) != env.step {
		t.Fatalf("the lane recorded %d actions of its pending episode, want %d", len(lane.acts), env.step)
	}
}
