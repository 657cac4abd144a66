package rl

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

func TestActionSpecActionSize(t *testing.T) {
	if (ActionSpec{Discrete: true, N: 3}).ActionSize() != 1 {
		t.Error("discrete action size")
	}
	if (ActionSpec{Dim: 3}).ActionSize() != 3 {
		t.Error("continuous action size")
	}
}

func TestCategoricalSampleDistribution(t *testing.T) {
	rng := mathx.NewRNG(1)
	net := nn.NewMLP(rng, []int{2, 8, 3}, nn.Tanh)
	p := NewCategoricalPolicy(net)
	obs := []float64{0.5, -0.5}
	probs := p.probs(obs)

	counts := make([]int, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		a, logp := p.Sample(rng, obs)
		idx := int(a[0])
		counts[idx]++
		if math.Abs(logp-math.Log(probs[idx]+1e-12)) > 1e-9 {
			t.Fatalf("sample logp inconsistent")
		}
	}
	for i := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-probs[i]) > 0.01 {
			t.Errorf("action %d frequency %v, want %v", i, got, probs[i])
		}
	}
}

func TestCategoricalModeIsArgmax(t *testing.T) {
	rng := mathx.NewRNG(2)
	net := nn.NewMLP(rng, []int{2, 4}, nn.Identity)
	p := NewCategoricalPolicy(net)
	obs := []float64{1, -1}
	mode := int(p.Mode(obs)[0])
	probs := p.probs(obs)
	if mode != mathx.ArgMax(probs) {
		t.Fatal("mode is not argmax")
	}
}

func TestCategoricalEntropyBounds(t *testing.T) {
	rng := mathx.NewRNG(3)
	net := nn.NewMLP(rng, []int{2, 5}, nn.Identity)
	p := NewCategoricalPolicy(net)
	h := p.Entropy([]float64{0.2, 0.7})
	if h < 0 || h > math.Log(5)+1e-9 {
		t.Fatalf("entropy %v out of [0, log 5]", h)
	}
}

// numericPolicyGrad computes d f / d p.Params()[pi][idx] by central
// differences, writing through views taken after the last forward.
func numericPolicyGrad(f func() float64, p Policy, pi, idx int) float64 {
	const h = 1e-6
	orig := p.Params()[pi][idx]
	p.Params()[pi][idx] = orig + h
	fp := f()
	p.Params()[pi][idx] = orig - h
	fm := f()
	p.Params()[pi][idx] = orig
	return (fp - fm) / (2 * h)
}

func checkPolicyBackward(t *testing.T, p Policy, obs, action []float64, wLogp, wEnt float64) {
	t.Helper()
	p.ZeroGrad()
	p.Backward(obs, action, wLogp, wEnt)
	grads := p.Grads()
	params := p.Params()
	obj := func() float64 {
		return wLogp*p.LogProb(obs, action) + wEnt*p.Entropy(obs)
	}
	for pi := range params {
		for idx := 0; idx < len(params[pi]); idx += 2 {
			want := numericPolicyGrad(obj, p, pi, idx)
			got := grads[pi][idx]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param[%d][%d]: grad %v, numeric %v", pi, idx, got, want)
			}
		}
	}
}

func TestCategoricalBackwardNumeric(t *testing.T) {
	rng := mathx.NewRNG(5)
	net := nn.NewMLP(rng, []int{3, 6, 4}, nn.Tanh)
	p := NewCategoricalPolicy(net)
	obs := []float64{0.1, -0.4, 0.9}
	checkPolicyBackward(t, p, obs, []float64{2}, 1.0, 0.0)
	checkPolicyBackward(t, p, obs, []float64{0}, -0.7, 0.3)
	checkPolicyBackward(t, p, obs, []float64{3}, 0.0, 1.0)
}

func TestGaussianBackwardNumeric(t *testing.T) {
	rng := mathx.NewRNG(7)
	net := nn.NewMLP(rng, []int{3, 5, 2}, nn.Tanh)
	p := NewGaussianPolicy(net, -0.3)
	obs := []float64{0.3, 0.1, -0.8}
	action := []float64{0.5, -1.2}
	checkPolicyBackward(t, p, obs, action, 1.0, 0.0)
	checkPolicyBackward(t, p, obs, action, -0.5, 0.2)
	checkPolicyBackward(t, p, obs, action, 0.0, 1.0)
}

func TestGaussianLogProbAnalytic(t *testing.T) {
	rng := mathx.NewRNG(9)
	// Identity net with zero weights => mean = bias = 0.
	net := nn.NewMLP(rng, []int{1, 1}, nn.Identity)
	mathx.Fill(net.Params()[0], 0)
	mathx.Fill(net.Params()[1], 0)
	p := NewGaussianPolicy(net, 0) // std = 1
	obs := []float64{0}
	logp := p.LogProb(obs, []float64{0})
	want := -0.5 * math.Log(2*math.Pi)
	if math.Abs(logp-want) > 1e-12 {
		t.Fatalf("logp(0) = %v, want %v", logp, want)
	}
	logp1 := p.LogProb(obs, []float64{1})
	if math.Abs(logp1-(want-0.5)) > 1e-12 {
		t.Fatalf("logp(1) = %v, want %v", logp1, want-0.5)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	rng := mathx.NewRNG(11)
	net := nn.NewMLP(rng, []int{1, 1}, nn.Identity)
	mathx.Fill(net.Params()[0], 0)
	net.Params()[1][0] = 2.0 // mean = 2
	p := NewGaussianPolicy(net, math.Log(0.5))
	obs := []float64{0}
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		a, _ := p.Sample(rng, obs)
		sum += a[0]
		sumSq += a[0] * a[0]
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-2) > 0.01 {
		t.Errorf("sample mean %v, want 2", mean)
	}
	if math.Abs(std-0.5) > 0.01 {
		t.Errorf("sample std %v, want 0.5", std)
	}
	mode := p.Mode(obs)
	if math.Abs(mode[0]-2) > 1e-12 {
		t.Errorf("mode %v, want 2", mode[0])
	}
}

func TestGaussianEntropy(t *testing.T) {
	rng := mathx.NewRNG(13)
	net := nn.NewMLP(rng, []int{1, 2}, nn.Identity)
	p := NewGaussianPolicy(net, 0)
	want := 2 * 0.5 * (math.Log(2*math.Pi) + 1) // two unit-std dims
	if got := p.Entropy([]float64{0}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("entropy %v, want %v", got, want)
	}
}
