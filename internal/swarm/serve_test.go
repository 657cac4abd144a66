package swarm

import (
	"reflect"
	"testing"
	"time"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/serve"
)

// TestSwarmServeBackedIdentity proves the serve-backed client mode changes
// nothing while the engine keeps up: a swarm whose clients share one
// engine-backed protocol produces a bitwise-identical Result to the same
// swarm holding the policy directly (per-client clones — CategoricalPolicy
// is not concurrency-safe), across worker counts, with zero fallbacks.
func TestSwarmServeBackedIdentity(t *testing.T) {
	levels := len(abr.DefaultVideoConfig().BitratesKbps)
	policy := rl.NewCategoricalPolicy(abr.NewPensieveNet(mathx.NewRNG(99), levels))

	base := Config{
		Clients:      24,
		Groups:       4,
		Seed:         7,
		CapacityMbps: 12,
		RTTSeconds:   0.05,
		StartWindowS: 10,
	}

	directCfg := base
	directCfg.Workers = 1
	directCfg.NewProtocol = func(int) abr.Protocol { return abr.NewPensieve(policy.Clone()) }
	direct, err := Run(directCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		eng := newEngine(t, serve.NewRegistry(policy.Net()), serve.Config{Workers: 2, MaxBatch: 8})
		mode := NewServeMode(eng, 0)

		servedCfg := base
		servedCfg.Workers = workers
		servedCfg.NewProtocol = mode.NewProtocol
		served, err := Run(servedCfg)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if mode.Proto().Fallbacks() != 0 {
			t.Fatalf("workers=%d: %d fallbacks with an unloaded engine, want 0", workers, mode.Proto().Fallbacks())
		}
		if mode.Proto().Decisions() == 0 {
			t.Fatalf("workers=%d: engine-backed protocol never consulted", workers)
		}
		if !reflect.DeepEqual(direct, served) {
			t.Fatalf("workers=%d: serve-backed result diverges from direct policy:\ndirect: %+v\nserved: %+v", workers, direct, served)
		}
	}
}

// TestSwarmServeBackedOverloadDegrades drives a swarm against a deliberately
// starved engine (one worker serving a Pensieve-shaped policy with
// 1024-wide hidden layers, whose every flush outlasts the deadline, and a
// tiny queue): decisions must shed to the fallback — counted, nonzero — and
// every session still completes with a valid result.
func TestSwarmServeBackedOverloadDegrades(t *testing.T) {
	levels := len(abr.DefaultVideoConfig().BitratesKbps)
	policy := rl.NewCategoricalPolicy(nn.NewMLP(mathx.NewRNG(5), []int{abr.FeatureSize(levels), 1024, 1024, levels}, nn.Tanh))
	eng := newEngine(t, serve.NewRegistry(policy.Net()), serve.Config{
		Workers: 1, MaxBatch: 2, QueueDepth: 2,
	})
	defer eng.Close()
	mode := NewServeMode(eng, 300*time.Microsecond)

	cfg := Config{
		Clients:      32,
		Groups:       8,
		Workers:      4,
		Seed:         3,
		CapacityMbps: 12,
		RTTSeconds:   0.05,
		StartWindowS: 2,
		NewProtocol:  mode.NewProtocol,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedClients != cfg.Clients {
		t.Fatalf("%d/%d clients completed under overload", res.CompletedClients, cfg.Clients)
	}
	if mode.Proto().Fallbacks() == 0 {
		t.Fatal("starved engine shed nothing — overload never materialized")
	}
	if got, want := mode.Proto().Decisions(), eng.Served()+mode.Proto().Fallbacks(); got != want {
		t.Fatalf("decisions %d != served %d + fallbacks %d", got, eng.Served(), mode.Proto().Fallbacks())
	}
}

// newEngine starts an engine whose Config the test knows is valid.
func newEngine(t testing.TB, reg *serve.Registry, cfg serve.Config) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
