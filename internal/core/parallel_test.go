package core

import (
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/rl"
)

// TestTrainABRAdversaryParallelReproducible: Lanes=2 must be deterministic
// for a fixed seed — identical IterStats across runs — and must collect the
// same data volume per iteration as the sequential path.
func TestTrainABRAdversaryParallelReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func() []rl.IterStats {
		v := testVideo()
		opt := TrainOptions{Iterations: 2, RolloutSteps: 96, LR: 1e-3, Lanes: 2}
		_, stats, err := TrainABRAdversary(v, abr.NewBB(), DefaultABRAdversaryConfig(), opt, mathx.NewRNG(51))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	s1, s2 := run(), run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("iter %d stats differ across W=2 runs:\n%+v\n%+v", i, s1[i], s2[i])
		}
		if s1[i].Steps != 96 {
			t.Fatalf("iter %d Steps = %d, want 96", i, s1[i].Steps)
		}
	}
}

// TestTrainCCAdversaryParallelReproducible: the emulator-backed CC adversary
// must also train deterministically with parallel workers (each worker's
// emulator draws from a private RNG stream).
func TestTrainCCAdversaryParallelReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func() []rl.IterStats {
		cfg := DefaultCCAdversaryConfig()
		cfg.EpisodeSteps = 100
		opt := TrainOptions{Iterations: 2, RolloutSteps: 200, LR: 1e-3, Lanes: 2}
		_, stats, err := TrainCCAdversary(func() netem.CongestionController { return cc.NewBBR() },
			cfg, opt, mathx.NewRNG(52))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	s1, s2 := run(), run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("iter %d stats differ across W=2 runs:\n%+v\n%+v", i, s1[i], s2[i])
		}
	}
}

// TestTrainTraceAdversaryParallel exercises the protocol-clone path: MPC
// carries per-session prediction-error state, so each worker must receive an
// independent clone via abr.CloneProtocol.
func TestTrainTraceAdversaryParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	opt := TrainOptions{Iterations: 2, RolloutSteps: 8, LR: 3e-3, Lanes: 2}
	_, stats, err := TrainTraceAdversary(v, abr.NewMPC(), DefaultTraceAdversaryConfig(), opt, mathx.NewRNG(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d iterations, want 2", len(stats))
	}
	for i, s := range stats {
		if s.Steps != 8 {
			t.Fatalf("iter %d Steps = %d, want 8", i, s.Steps)
		}
	}
}
