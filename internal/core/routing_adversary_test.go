package core

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/routing"
)

func abileneEnvConfig() RoutingAdversaryConfig {
	pairs := [][2]int{{0, 10}, {1, 9}, {2, 8}, {0, 5}, {4, 10}, {3, 7}}
	return DefaultRoutingAdversaryConfig(pairs)
}

func TestRoutingEnvShapes(t *testing.T) {
	top := routing.Abilene()
	cfg := abileneEnvConfig()
	cfg.Rounds = 5
	env := NewRoutingEnv(top, routing.SPF{}, cfg)
	obs := env.Reset()
	if len(obs) != len(top.Edges) || env.ObservationSize() != len(top.Edges) {
		t.Fatal("observation size")
	}
	steps := 0
	rng := mathx.NewRNG(1)
	for {
		raw := make([]float64, len(cfg.Pairs))
		for i := range raw {
			raw[i] = rng.Uniform(-1, 1)
		}
		next, r, done := env.Step(raw)
		steps++
		if math.IsNaN(r) {
			t.Fatal("NaN reward")
		}
		for _, u := range next {
			if u < 0 || math.IsNaN(u) {
				t.Fatalf("utilization %v", u)
			}
		}
		if done {
			break
		}
	}
	if steps != 5 {
		t.Fatalf("episode length %d", steps)
	}
	if env.ActionSpec().Dim != len(cfg.Pairs) {
		t.Fatal("action spec")
	}
}

func TestRoutingEnvRewardNonNegativeModuloSmoothing(t *testing.T) {
	// r_opt <= r_scheme always (the oracle only improves on the scheme),
	// so reward >= -SmoothWeight.
	top := routing.Abilene()
	cfg := abileneEnvConfig()
	cfg.Rounds = 20
	for _, scheme := range []routing.Scheme{routing.SPF{}, routing.ECMP{}} {
		env := NewRoutingEnv(top, scheme, cfg)
		env.Reset()
		rng := mathx.NewRNG(3)
		for i := 0; i < 20; i++ {
			raw := make([]float64, len(cfg.Pairs))
			for j := range raw {
				raw[j] = rng.Uniform(-1, 1)
			}
			_, r, done := env.Step(raw)
			if r < -cfg.SmoothWeight-1e-6 {
				t.Fatalf("%s: reward %v below smoothing floor (oracle worse than scheme?)",
					scheme.Name(), r)
			}
			if done {
				break
			}
		}
	}
}

func TestRoutingDecodeActionBounds(t *testing.T) {
	top := routing.Abilene()
	cfg := abileneEnvConfig()
	env := NewRoutingEnv(top, routing.SPF{}, cfg)
	rng := mathx.NewRNG(5)
	for i := 0; i < 100; i++ {
		raw := make([]float64, len(cfg.Pairs))
		for j := range raw {
			raw[j] = rng.Uniform(-4, 4)
		}
		for _, dem := range env.DecodeAction(raw) {
			if dem.Src < 0 || dem.Src >= top.N || dem.Dst < 0 || dem.Dst >= top.N || dem.Src == dem.Dst {
				t.Fatalf("demand endpoints %d->%d invalid", dem.Src, dem.Dst)
			}
			if dem.Rate < 0 || dem.Rate > cfg.MaxRate {
				t.Fatalf("rate %v outside [0, %v]", dem.Rate, cfg.MaxRate)
			}
		}
	}
}

func TestTrainRoutingAdversaryFindsSPFGap(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	top := routing.Abilene()
	cfg := abileneEnvConfig()
	opt := TrainOptions{Iterations: 15, RolloutSteps: 512, LR: 1e-3}
	adv, stats, err := TrainRoutingAdversary(top, routing.SPF{}, cfg, opt, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	last := stats[len(stats)-1].MeanStepRew
	if last < 0.2 {
		t.Fatalf("adversary found only %v MLU gap against SPF", last)
	}

	// The generated demands should leave SPF far from optimal while the
	// oracle routes them comfortably.
	demands := adv.GenerateDemands(top, routing.SPF{})
	oracle := routing.NewOracle()
	var gap float64
	for _, d := range demands {
		gap += routing.MLU(top, routing.SPF{}.Route(top, d)) - routing.MLU(top, oracle.Route(top, d))
	}
	gap /= float64(len(demands))
	if gap < 0.15 {
		t.Fatalf("deterministic demands give mean gap %v", gap)
	}
}

func TestRoutingAdversaryTargetsScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Demands adversarial for SPF should be handled much better by the
	// oracle-guided softmin... we compare against ECMP, the natural
	// "other protocol" in this domain.
	top := routing.Abilene()
	cfg := abileneEnvConfig()
	opt := TrainOptions{Iterations: 15, RolloutSteps: 512, LR: 1e-3}
	adv, _, err := TrainRoutingAdversary(top, routing.SPF{}, cfg, opt, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	demands := adv.GenerateDemands(top, routing.SPF{})
	var spfMLU, ecmpMLU float64
	for _, d := range demands {
		spfMLU += routing.MLU(top, routing.SPF{}.Route(top, d))
		ecmpMLU += routing.MLU(top, routing.ECMP{}.Route(top, d))
	}
	if spfMLU <= ecmpMLU {
		t.Fatalf("SPF (%v) should be more congested than ECMP (%v) on SPF-targeted demands",
			spfMLU, ecmpMLU)
	}
}
