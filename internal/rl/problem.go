package rl

import (
	"fmt"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// Problem is one PPO training problem — networks, hyperparameters,
// environments — and the one place a trainer is assembled from them. Every
// trainer in the tree (the adversaries, Pensieve, the robust pipeline, the
// internal/dist coordinator and its workers) is built here, so they all
// consume their RNG in the one order NewTrainer fixes, and an in-process run
// and a distributed run of the same Problem are the same run by construction.
type Problem struct {
	// Nets builds the policy and the value network, drawing initial
	// weights from rng: the policy's first, then the value network's.
	Nets func(rng *mathx.RNG) (Policy, *nn.MLP)
	// Config is the problem's PPO configuration.
	Config PPOConfig
	// Envs prepares a run's environments: it draws whatever per-lane
	// streams they need from rng, in lane order, and returns the factory
	// that builds lane i's environment (lane w of a dataset-backed problem
	// streams shard w of the lanes-way partition).
	Envs func(lanes int, rng *mathx.RNG) (EnvFactory, error)
}

// NewTrainer assembles the problem's trainer and its environment factory for
// a run with the given lane count. It consumes rng in the canonical order:
// policy net, value net, then the per-lane environment streams in lane order.
// The clone lanes' streams follow, split by whoever binds the lanes
// (NewVecRunner, PPO.NewLaneStates), and the trainer keeps rng as its own.
func NewTrainer(pr Problem, lanes int, rng *mathx.RNG) (*PPO, EnvFactory, error) {
	if lanes <= 0 {
		return nil, nil, fmt.Errorf("rl: NewTrainer lanes=%d", lanes)
	}
	policy, value := pr.Nets(rng)
	ppo, err := NewPPO(policy, value, pr.Config, rng)
	if err != nil {
		return nil, nil, err
	}
	factory, err := pr.Envs(lanes, rng)
	if err != nil {
		return nil, nil, err
	}
	return ppo, factory, nil
}

// Lane builds the lane a worker process serves for one slot of a lanes-wide
// run of the problem. Construction randomness is arbitrary: parameters are
// overwritten by every broadcast, and the lane's RNG and environment state
// by every Restore. Only the architecture, the hyperparameters and the
// lane's share of the inputs must match the trainer's, which they do because
// both come from the same Problem.
func (pr Problem) Lane(lane, lanes int) (*Lane, error) {
	if lane < 0 || lane >= lanes {
		return nil, fmt.Errorf("rl: lane %d out of range [0,%d)", lane, lanes)
	}
	policy, value := pr.Nets(mathx.NewRNG(1))
	factory, err := pr.Envs(lanes, mathx.NewRNG(2))
	if err != nil {
		return nil, err
	}
	return NewLane(policy, value, factory(lane), pr.Config.Gamma, pr.Config.Lambda)
}

// TrainOptions is the one set of training options every trainer built from a
// Problem honours. A zero RolloutSteps, LR, Gamma or Lambda keeps the
// problem's own Config value (DefaultPPOConfig's, for every adversary).
type TrainOptions struct {
	Iterations   int // PPO iterations
	RolloutSteps int // env steps per iteration, split across the lanes
	LR           float64
	Gamma        float64 // discount
	Lambda       float64 // GAE lambda
	// Restarts > 1 trains that many models from independent
	// initializations and keeps the one with the highest final reward. PPO
	// on adversarial objectives is seed-sensitive (some runs converge to
	// weak local attacks); restart selection makes the generated traces
	// reliably strong. Incompatible with Checkpoint (one directory cannot
	// hold several independent runs).
	Restarts int
	// Workers is the number of rollout lanes (see VecRunner), each with its
	// own environment instance; RolloutSteps are split across them, so the
	// data volume per iteration is unchanged. Workers ≤ 1 is one lane on the
	// calling goroutine; the update's policy and value halves run side by
	// side whatever Workers is. Results are reproducible for a fixed Workers
	// and differ between worker counts (same seed, different trajectory
	// partition).
	Workers int
	// Checkpoint enables crash-safe training: periodic atomic trainer
	// checkpoints under Checkpoint.Dir with automatic resume (see
	// CheckpointConfig). An environment that does not implement
	// EnvCheckpointer abandons its half-collected episode on resume — valid
	// training, though not bit-for-bit an uninterrupted run.
	Checkpoint CheckpointConfig
}

// Train trains the problem under opt and returns the trainer (whose Policy
// and Value are the trained networks) with the statistics of the iterations
// this call executed. With opt.Restarts > 1 it returns the best of several
// independent runs, judged by mean episode reward over the final quarter of
// training; each run draws from its own split of rng.
func Train(pr Problem, opt TrainOptions, rng *mathx.RNG) (*PPO, []IterStats, error) {
	if opt.Restarts > 1 && opt.Checkpoint.Dir != "" {
		return nil, nil, fmt.Errorf("rl: Restarts=%d is incompatible with checkpointing (one directory cannot hold several independent runs)", opt.Restarts)
	}
	if opt.RolloutSteps > 0 {
		pr.Config.RolloutSteps = opt.RolloutSteps
	}
	if opt.LR > 0 {
		pr.Config.LR = opt.LR
	}
	if opt.Gamma > 0 {
		pr.Config.Gamma = opt.Gamma
	}
	if opt.Lambda > 0 {
		pr.Config.Lambda = opt.Lambda
	}
	if opt.Restarts <= 1 {
		return trainOnce(pr, opt, rng)
	}
	var (
		best      *PPO
		bestStats []IterStats
		bestScore float64
	)
	for i := 0; i < opt.Restarts; i++ {
		ppo, stats, err := trainOnce(pr, opt, rng.Split())
		if err != nil {
			return nil, nil, err
		}
		if score := finalReward(stats); best == nil || score > bestScore {
			best, bestStats, bestScore = ppo, stats, score
		}
	}
	return best, bestStats, nil
}

func trainOnce(pr Problem, opt TrainOptions, rng *mathx.RNG) (*PPO, []IterStats, error) {
	lanes := max(1, opt.Workers)
	ppo, factory, err := NewTrainer(pr, lanes, rng)
	if err != nil {
		return nil, nil, err
	}
	v, err := NewVecRunner(ppo, factory, lanes)
	if err != nil {
		return nil, nil, err
	}
	stats, err := v.TrainCheckpointed(opt.Iterations, opt.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	return ppo, stats, nil
}

// finalReward scores a training run by its tail performance.
func finalReward(stats []IterStats) float64 {
	if len(stats) == 0 {
		return math.Inf(-1)
	}
	tail := stats[len(stats)*3/4:]
	var sum float64
	for _, s := range tail {
		sum += s.MeanEpReward
	}
	return sum / float64(len(tail))
}
