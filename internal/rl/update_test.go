package rl

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/par"
)

// TestGaussianViewsAllocFree: the optimizer views of a Gaussian policy are
// built once, so Params, Grads and ClipGradNorm (which walks Grads)
// allocate nothing per minibatch.
func TestGaussianViewsAllocFree(t *testing.T) {
	rng := mathx.NewRNG(3)
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{3, 8, 2}, nn.Tanh), -0.5)
	mathx.Fill(policy.Grads()[0], 1)
	for name, f := range map[string]func(){
		"Params":       func() { policy.Params() },
		"Grads":        func() { policy.Grads() },
		"ClipGradNorm": func() { policy.ClipGradNorm(0.5) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("GaussianPolicy.%s: %v allocs, want 0", name, n)
		}
	}
}

// TestGaussianViewsCapped: the views are shared between calls, so they must
// be capacity-capped — two callers appending to Params() must not write
// into one backing array — and rebuilt when the net's layers are replaced.
func TestGaussianViewsCapped(t *testing.T) {
	rng := mathx.NewRNG(4)
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{2, 4, 1}, nn.Tanh), 0)
	x, y := []float64{1}, []float64{2}
	a := append(policy.Params(), x)
	b := append(policy.Params(), y)
	if &a[len(a)-1][0] != &x[0] || &b[len(b)-1][0] != &y[0] {
		t.Fatal("appends to Params() share one backing array")
	}
	for _, views := range [][][]float64{policy.Params(), policy.Grads()} {
		if cap(views) != len(views) {
			t.Fatalf("view capacity %d, length %d: want capped", cap(views), len(views))
		}
	}

	other := nn.NewMLP(mathx.NewRNG(5), []int{2, 4, 1}, nn.Tanh)
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, policy.Net()); err != nil {
		t.Fatal(err)
	}
	netParams, netGrads := policy.Net().Params(), policy.Net().Grads()
	params, grads := policy.Params(), policy.Grads()
	for i := range netParams {
		if !sameSlice(params[i], netParams[i]) || !sameSlice(grads[i], netGrads[i]) {
			t.Fatalf("view %d still names the replaced layer", i)
		}
	}
	if !sameSlice(params[len(netParams)], policy.LogStd()) {
		t.Fatal("Params() lost the log-std vector")
	}
}

// gradPanicPolicy is a BatchPolicy whose BatchGrad panics: a fault inside
// the update's policy half.
type gradPanicPolicy struct{ *CategoricalPolicy }

const gradPanicValue = "stub BatchGrad"

func (gradPanicPolicy) BatchGrad([]float64, float64) { panic(gradPanicValue) }

// TestUpdatePanicContained: a panic in the update's policy half comes out of
// PPO.Train as the *par.PanicError carrying the panic value, and no
// goroutine of the update outlives it.
func TestUpdatePanicContained(t *testing.T) {
	rng := mathx.NewRNG(6)
	policy := gradPanicPolicy{NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 4, 3}, nn.Tanh))}
	value := nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = 32
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		p.Train(&banditEnv{rewards: []float64{0, 1, 0.5}}, 1)
		return nil
	}()
	var perr *par.PanicError
	if err, ok := got.(error); !ok || !errors.As(err, &perr) {
		t.Fatalf("Train panicked with %#v, want a *par.PanicError", got)
	}
	if perr.Value != gradPanicValue {
		t.Fatalf("PanicError.Value = %#v, want %q", perr.Value, gradPanicValue)
	}
	// The value half's goroutine has returned before Train re-panics; give
	// it a moment to be reaped.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), before)
		}
	}
}
