package rl

import (
	"fmt"
	"runtime/debug"
	"sync"

	"advnet/internal/faults"
	"advnet/internal/mathx"
)

// EvalStats summarizes deterministic policy evaluation.
type EvalStats struct {
	Episodes      int
	MeanReward    float64 // mean total episode reward
	StdReward     float64
	MeanEpLength  float64
	RewardPerStep float64
}

// RunEpisode is the one episode driver: reset, then act (a sample drawn from
// rng when stochastic, the policy's mode otherwise — rng may then be nil)
// and step until the environment reports done. onStep, when non-nil, sees
// every action before the environment applies it. It returns the total
// reward and the episode length in steps.
func RunEpisode(policy Policy, env Env, rng *mathx.RNG, stochastic bool, onStep func(action []float64)) (total float64, length int) {
	obs := env.Reset()
	for {
		var action []float64
		if stochastic {
			action, _ = policy.Sample(rng, obs)
		} else {
			action = policy.Mode(obs)
		}
		if onStep != nil {
			onStep(action)
		}
		next, reward, done := env.Step(action)
		total += reward
		length++
		if done {
			return total, length
		}
		obs = next
	}
}

// evalStatsFrom folds per-episode totals and lengths — indexed by global
// episode number — into aggregate statistics. Both Evaluate and
// ParallelEvaluate reduce through this one function, so their outputs are
// bitwise identical whenever the per-episode inputs are: the merge order is
// the episode order, never the completion order.
func evalStatsFrom(totals, lengths []float64) EvalStats {
	st := EvalStats{
		Episodes:     len(totals),
		MeanReward:   mathx.Mean(totals),
		StdReward:    mathx.StdDev(totals),
		MeanEpLength: mathx.Mean(lengths),
	}
	if steps := mathx.Sum(lengths); steps > 0 {
		st.RewardPerStep = mathx.Sum(totals) / steps
	}
	return st
}

// Evaluate runs the policy deterministically (Mode actions) for the given
// number of episodes and returns aggregate statistics. episodes <= 0 returns
// the zero EvalStats.
func Evaluate(policy Policy, env Env, episodes int) EvalStats {
	if episodes <= 0 {
		return EvalStats{}
	}
	totals := make([]float64, episodes)
	lengths := make([]float64, episodes)
	for ep := 0; ep < episodes; ep++ {
		total, length := RunEpisode(policy, env, nil, false, nil)
		totals[ep] = total
		lengths[ep] = float64(length)
	}
	return evalStatsFrom(totals, lengths)
}

// ParallelEvaluate is Evaluate fanned out over a worker pool. envs supplies
// one independent environment per worker (only the first min(workers,
// episodes) entries are used); worker 0 evaluates with the given policy
// directly and every other worker with a ClonePolicy copy, mirroring
// VecRunner's worker/clone layout. Episode indices are assigned statically
// (worker w plays global episodes w, w+workers, w+2·workers, …) and each
// result is written to its episode's slot, so the reduction sees per-episode
// results in episode order regardless of goroutine scheduling. When every
// env in envs is a deterministic replica — each episode's trajectory depends
// only on the policy, not on which env instance plays it or how many
// episodes that instance played before — the returned EvalStats is bitwise
// identical to Evaluate(policy, envs[0], episodes) for any worker count.
//
// Errors: envs must be non-empty with non-nil entries for every used worker,
// episodes and workers must be positive, and the policy must be cloneable
// (ClonePolicy) when more than one worker is used.
func ParallelEvaluate(policy Policy, envs []Env, episodes, workers int) (EvalStats, error) {
	if len(envs) == 0 {
		return EvalStats{}, fmt.Errorf("rl: ParallelEvaluate requires at least one env")
	}
	if episodes <= 0 {
		return EvalStats{}, fmt.Errorf("rl: ParallelEvaluate requires episodes > 0, got %d", episodes)
	}
	if workers <= 0 {
		return EvalStats{}, fmt.Errorf("rl: ParallelEvaluate requires workers > 0, got %d", workers)
	}
	if workers > len(envs) {
		workers = len(envs)
	}
	if workers > episodes {
		workers = episodes
	}
	for w := 0; w < workers; w++ {
		if envs[w] == nil {
			return EvalStats{}, fmt.Errorf("rl: ParallelEvaluate env %d is nil", w)
		}
	}
	if workers == 1 {
		return Evaluate(policy, envs[0], episodes), nil
	}

	policies := make([]Policy, workers)
	policies[0] = policy
	for w := 1; w < workers; w++ {
		clone, err := ClonePolicy(policy)
		if err != nil {
			return EvalStats{}, fmt.Errorf("rl: ParallelEvaluate worker %d: %w", w, err)
		}
		policies[w] = clone
	}

	totals := make([]float64, episodes)
	lengths := make([]float64, episodes)
	// Each shard is panic-contained: a panic in an environment or policy on
	// one worker becomes a *WorkerPanicError naming that worker instead of
	// taking down the process (and with it the other shards' results).
	shard := func(w int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &WorkerPanicError{Worker: w, Value: r, Stack: debug.Stack()}
			}
		}()
		for ep := w; ep < episodes; ep += workers {
			if ferr := faults.Fire("rl.eval.episode", w, ep); ferr != nil {
				return ferr
			}
			total, length := RunEpisode(policies[w], envs[w], nil, false, nil)
			totals[ep] = total
			lengths[ep] = float64(length)
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = shard(w)
		}(w)
	}
	errs[0] = shard(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return EvalStats{}, err
		}
	}
	return evalStatsFrom(totals, lengths), nil
}
