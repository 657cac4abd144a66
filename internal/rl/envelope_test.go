package rl

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// netsEqual reports bitwise parameter equality.
func netsEqual(a, b *nn.MLP) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if len(pa[i]) != len(pb[i]) {
			return false
		}
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				return false
			}
		}
	}
	return true
}

func TestSaveLoadPolicyNetRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(5)
	net := nn.NewMLP(rng, []int{7, 16, 4}, nn.Tanh)
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := SavePolicyNet(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPolicyNet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !netsEqual(net, got) {
		t.Fatal("round-tripped policy net differs")
	}
}

func TestLoadPolicyNetDetectsCorruption(t *testing.T) {
	rng := mathx.NewRNG(7)
	net := nn.NewMLP(rng, []int{4, 8, 2}, nn.ReLU)
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := SavePolicyNet(path, net); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload digit. The envelope stays valid JSON, so only the
	// sha256 check can catch it.
	for i := range data {
		if data[i] == '7' {
			data[i] = '8'
			break
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicyNet(path); err == nil {
		t.Fatal("corrupt policy envelope loaded without error")
	}
}

// TestLoadPolicyNetRefusesBareMLPJSON: a bare nn.MLP file (what robustify
// -o wrote before every model file became an envelope) is refused by an
// error that names the file and says what it is not.
func TestLoadPolicyNetRefusesBareMLPJSON(t *testing.T) {
	net := nn.NewMLP(mathx.NewRNG(11), []int{5, 6, 3}, nn.Tanh)
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadPolicyNet(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a model envelope") {
		t.Fatalf("LoadPolicyNet(bare MLP) err = %v, want a refusal naming %s as not an envelope", err, path)
	}
}

// TestLoadPolicyNetFromTrainerCheckpoints trains each trainer kind briefly,
// checkpoints it, and verifies the extracted policy net is bitwise the live
// trainer's — the handoff a serving fleet performs against a CheckpointDir.
func TestLoadPolicyNetFromTrainerCheckpoints(t *testing.T) {
	dir := t.TempDir()

	build := func(seed uint64) (*CategoricalPolicy, *nn.MLP, *mathx.RNG) {
		rng := mathx.NewRNG(seed)
		policy := NewCategoricalPolicy(nn.NewMLP(rng, []int{1, 8, 2}, nn.Tanh))
		value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
		return policy, value, rng
	}

	t.Run("ppo", func(t *testing.T) {
		policy, value, rng := build(13)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 64
		ppo, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		env := &banditEnv{rewards: []float64{0, 1}}
		ppo.Train(env, 1)
		path := filepath.Join(dir, "ppo.json")
		if err := ppo.SaveCheckpoint(path, nil); err != nil {
			t.Fatal(err)
		}
		got, err := LoadPolicyNet(path)
		if err != nil {
			t.Fatal(err)
		}
		if !netsEqual(policy.Net(), got) {
			t.Fatal("extracted PPO policy net differs from trainer's")
		}
	})

	// The A2C trainer and its checkpoint kind are gone: a file of that kind
	// (a well-formed envelope, as an old run left it) must be refused with
	// an error naming the kind, by the policy loader and the trainer alike.
	t.Run("a2c", func(t *testing.T) {
		policy, value, rng := build(19)
		path := filepath.Join(dir, "a2c.json")
		if err := WriteEnvelope(path, "a2c", map[string]any{"iter": 1, "policy": map[string]any{"kind": "categorical", "net": policy.Net()}}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPolicyNet(path); err == nil || !strings.Contains(err.Error(), `kind "a2c"`) {
			t.Fatalf("LoadPolicyNet err = %v, want a refusal naming the kind", err)
		}
		ppo, err := NewPPO(policy, value, DefaultPPOConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ppo.LoadCheckpoint(path, nil); err == nil || !strings.Contains(err.Error(), `kind "a2c"`) {
			t.Fatalf("LoadCheckpoint err = %v, want a refusal naming the kind", err)
		}
		if ppo.Iteration() != 0 {
			t.Fatalf("refused checkpoint advanced the trainer to iteration %d", ppo.Iteration())
		}
	})
}
