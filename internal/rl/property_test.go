package rl

import (
	"math"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// TestCategoricalLogProbConsistencyProperty: exp of the log-probs over all
// actions sums to one for arbitrary observations.
func TestCategoricalLogProbConsistencyProperty(t *testing.T) {
	p := NewCategoricalPolicy(nn.NewMLP(mathx.NewRNG(71), []int{3, 8, 5}, nn.Tanh))
	f := func(a, b, c float64) bool {
		obs := []float64{
			mathx.Clamp(a, -5, 5), mathx.Clamp(b, -5, 5), mathx.Clamp(c, -5, 5),
		}
		var sum float64
		for i := 0; i < 5; i++ {
			sum += math.Exp(p.LogProb(obs, []float64{float64(i)}))
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGaussianModeMaximizesDensityProperty: the mode's log-density is at
// least that of any other action.
func TestGaussianModeMaximizesDensityProperty(t *testing.T) {
	p := NewGaussianPolicy(nn.NewMLP(mathx.NewRNG(73), []int{2, 6, 3}, nn.Tanh), -0.3)
	f := func(a, b, x, y, z float64) bool {
		obs := []float64{mathx.Clamp(a, -5, 5), mathx.Clamp(b, -5, 5)}
		other := []float64{
			mathx.Clamp(x, -10, 10), mathx.Clamp(y, -10, 10), mathx.Clamp(z, -10, 10),
		}
		mode := p.Mode(obs)
		return p.LogProb(obs, mode) >= p.LogProb(obs, other)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGAEAdvantagePlusValueEqualsReturnProperty: by construction,
// ret = advantage + value for every stored step.
func TestGAEAdvantagePlusValueEqualsReturnProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		b := &rolloutBuffer{}
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			b.steps = append(b.steps, transition{
				reward: rng.Uniform(-5, 5),
				value:  rng.Uniform(-5, 5),
				done:   rng.Bernoulli(0.2),
			})
		}
		b.computeGAE(0.99, 0.95, rng.Uniform(-2, 2))
		for _, s := range b.steps {
			if math.Abs(s.ret-(s.advantage+s.value)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGaussianLogStdClampProperty: with a MaxLogStd cap, sampled actions'
// spread respects the effective bound regardless of the raw parameter.
func TestGaussianLogStdClampProperty(t *testing.T) {
	net := nn.NewMLP(mathx.NewRNG(77), []int{1, 1}, nn.Identity)
	mathx.Fill(net.Params()[0], 0)
	mathx.Fill(net.Params()[1], 0)
	p := NewGaussianPolicy(net, 3.0) // huge raw log-std
	p.MaxLogStd = -1.0               // capped std = e^-1 ≈ 0.37
	rng := mathx.NewRNG(78)
	var sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		a, _ := p.Sample(rng, []float64{0})
		sumSq += a[0] * a[0]
	}
	std := math.Sqrt(sumSq / n)
	if math.Abs(std-math.Exp(-1)) > 0.02 {
		t.Fatalf("sampled std %v, want ~%v (cap ignored?)", std, math.Exp(-1))
	}
	if h := p.Entropy(nil); math.Abs(h-(-1+0.5*(log2Pi+1))) > 1e-12 {
		t.Fatalf("entropy %v does not reflect the cap", h)
	}
}

// TestEvaluateMatchesManualRollout: RunEpisode's deterministic total equals
// a manual rollout of the policy's mode, and onStep sees every action.
func TestEvaluateMatchesManualRollout(t *testing.T) {
	rng := mathx.NewRNG(79)
	env := &targetEnv{target: 0.5, horizon: 6}
	p := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh), -1)
	steps := 0
	total, length := RunEpisode(p, env, nil, false, func([]float64) { steps++ })
	if length != env.horizon || steps != length {
		t.Fatalf("episode length %d with %d onStep calls, want %d", length, steps, env.horizon)
	}

	manual := 0.0
	obs := env.Reset()
	for {
		next, r, done := env.Step(p.Mode(obs))
		manual += r
		if done {
			break
		}
		obs = next
	}
	if math.Abs(total-manual) > 1e-9 {
		t.Fatalf("RunEpisode %v vs manual %v", total, manual)
	}
}
