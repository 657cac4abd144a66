package rl

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// goForward is the network's forward pass written as plain scalar loops over
// the weights it marshals: per output, the k-ascending sum from +0, the bias
// added last, then the hidden activation — the one kernel's sequence, with no
// cached transpose that could be stale.
func goForward(t *testing.T, net *nn.MLP, x []float64) []float64 {
	t.Helper()
	data, err := net.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Sizes  []int       `json:"sizes"`
		Hidden string      `json:"hidden"`
		W      [][]float64 `json:"w"`
		B      [][]float64 `json:"b"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	cur := x
	for l := range s.W {
		in, out := s.Sizes[l], s.Sizes[l+1]
		y := make([]float64, out)
		for o := range y {
			var sum float64
			for k := 0; k < in; k++ {
				sum += s.W[l][o*in+k] * cur[k]
			}
			y[o] = s.B[l][o] + sum
			if l == len(s.W)-1 {
				continue
			}
			switch s.Hidden {
			case "tanh":
				y[o] = mathx.Tanh(y[o])
			case "relu":
				y[o] = math.Max(y[o], 0)
			}
		}
		cur = y
	}
	return cur
}

// TestTransposeFollowsEveryWriter: every way the repository writes a
// network's weights must reach the next forward. Each row forwards a policy
// net (building its weight transposes on AVX2 hardware), writes new weights
// through one writer, then forwards again, one row and a batch; the outputs
// must move and be bitwise the scalar loops over the new weights.
func TestTransposeFollowsEveryWriter(t *testing.T) {
	sizes := []int{1, 20, 18, 1}
	newPolicy := func(seed uint64) *GaussianPolicy {
		return NewGaussianPolicy(nn.NewMLP(mathx.NewRNG(seed), sizes, nn.Tanh), -0.5)
	}
	newTrainer := func(t *testing.T, policy *GaussianPolicy, seed uint64) *PPO {
		t.Helper()
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 32
		cfg.MinibatchSize = 8
		rng := mathx.NewRNG(seed)
		p, err := NewPPO(policy, nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	saved := newTrainer(t, newPolicy(2), 3)
	saved.Train(newCkptEnv(), 1)
	if err := saved.SaveCheckpoint(ckpt, nil); err != nil {
		t.Fatal(err)
	}
	marshal := func(t *testing.T, net *nn.MLP) []byte {
		t.Helper()
		data, err := net.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	rows := []struct {
		name  string
		write func(t *testing.T, p *GaussianPolicy) error
	}{
		{"Adam.Step", func(t *testing.T, p *GaussianPolicy) error {
			for _, g := range p.Net().Grads() {
				mathx.Fill(g, 0.25)
			}
			nn.NewAdam(0.1).Step(p.Net().Params(), p.Net().Grads())
			return nil
		}},
		{"Lane.SetParams", func(t *testing.T, p *GaussianPolicy) error {
			l, err := NewLane(p, nn.NewMLP(mathx.NewRNG(4), []int{1, 8, 1}, nn.Tanh), newCkptEnv(), 0.99, 0.95)
			if err != nil {
				return err
			}
			return l.SetParams(newPolicy(2).Params(), nn.NewMLP(mathx.NewRNG(5), []int{1, 8, 1}, nn.Tanh).Params())
		}},
		{"MLP.CopyParamsFrom", func(t *testing.T, p *GaussianPolicy) error {
			return p.Net().CopyParamsFrom(newPolicy(2).Net())
		}},
		{"MLP.UnmarshalJSON/same-shape", func(t *testing.T, p *GaussianPolicy) error {
			return p.Net().UnmarshalJSON(marshal(t, newPolicy(2).Net()))
		}},
		{"MLP.UnmarshalJSON/reshaped", func(t *testing.T, p *GaussianPolicy) error {
			return p.Net().UnmarshalJSON(marshal(t, nn.NewMLP(mathx.NewRNG(6), []int{1, 7, 3, 1}, nn.ReLU)))
		}},
		{"PPO.LoadCheckpoint", func(t *testing.T, p *GaussianPolicy) error {
			return newTrainer(t, p, 7).LoadCheckpoint(ckpt, newCkptEnv())
		}},
	}
	xs := []float64{0.7, -1.3, 0.05, 2.5, -0.4}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := newPolicy(1)
			net := p.Net()
			before := net.Predict(xs[:1])
			if err := row.write(t, p); err != nil {
				t.Fatal(err)
			}
			batch := net.ForwardBatch(net.NewBatchCache(len(xs)), xs, len(xs))
			for r, x := range xs {
				want := goForward(t, net, []float64{x})[0]
				if got := net.Predict([]float64{x})[0]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: forward after the write %v, scalar loops %v", r, got, want)
				}
				if got := batch[r]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: batch forward after the write %v, scalar loops %v", r, got, want)
				}
			}
			if after := net.Predict(xs[:1]); after[0] == before[0] {
				t.Fatalf("the write did not move the output (%v)", after[0])
			}
		})
	}
}
