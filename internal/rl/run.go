package rl

import (
	"fmt"
	"math"
)

// This file holds the crash-safe training loop: periodic checkpointing with
// keep-last-K retention, a divergence watchdog that aborts (and rolls the
// trainer back to the last good checkpoint) when a loss or parameter goes
// NaN/Inf, and the typed error that reports it.

// DivergenceError reports that the divergence watchdog found a NaN or Inf in
// the training statistics or parameters after an iteration. Training is
// deterministic, so retrying the same iteration would diverge identically —
// the caller must change something (hyperparameters, data) before resuming
// from the rolled-back checkpoint.
type DivergenceError struct {
	Iteration  int
	Detail     string
	RolledBack bool // trainer state was restored from the last checkpoint
}

func (e *DivergenceError) Error() string {
	msg := fmt.Sprintf("rl: divergence at iteration %d: %s", e.Iteration, e.Detail)
	if e.RolledBack {
		msg += " (trainer rolled back to last checkpoint)"
	}
	return msg
}

// CheckpointConfig controls periodic checkpointing in TrainCheckpointed. A
// zero value disables checkpointing (the divergence watchdog still runs).
type CheckpointConfig struct {
	Dir   string // checkpoint directory; empty disables checkpointing
	Every int    // save every N iterations; <= 0 means every iteration
	Keep  int    // checkpoints retained; <= 0 means DefaultKeep
}

// checkFinite returns a description of the first non-finite value found in
// the iteration's loss statistics or the given parameter groups, or "".
func checkFinite(stats IterStats, groups ...[][]float64) string {
	checks := []struct {
		name string
		v    float64
	}{
		{"policy loss", stats.PolicyLoss},
		{"value loss", stats.ValueLoss},
		{"entropy", stats.Entropy},
		{"approx KL", stats.ApproxKL},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Sprintf("%s is %v", c.name, c.v)
		}
	}
	for gi, params := range groups {
		for pi, p := range params {
			for j, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Sprintf("parameter set %d group %d index %d is %v", gi, pi, j, v)
				}
			}
		}
	}
	return ""
}

// TrainLoop is the one crash-safe training loop, shared by every lane
// transport (in-process runners and the internal/dist coordinator): it runs
// step until the trainer has completed `iterations` total iterations,
// checks each iteration's losses and the parameters for NaN/Inf, and — with
// a checkpoint directory — saves every `every` iterations (<= 0: every one)
// and after the last. step runs one iteration; save writes a checkpoint of
// the state step left behind; load restores one. On divergence the loop
// rolls the trainer back to the newest loadable checkpoint through load and
// returns a *DivergenceError, leaving no checkpoint of the poisoned
// iteration. It returns the stats of the iterations this call executed.
func (p *PPO) TrainLoop(iterations int, cd *CheckpointDir, every int, step func() (IterStats, error), save, load func(path string) error) ([]IterStats, error) {
	if every <= 0 {
		every = 1
	}
	out := make([]IterStats, 0, max(0, iterations-p.iter))
	for p.iter < iterations {
		stats, err := step()
		if err != nil {
			return out, err
		}
		if detail := checkFinite(stats, p.Policy.Params(), p.Value.Params()); detail != "" {
			derr := &DivergenceError{Iteration: stats.Iteration, Detail: detail}
			if cd != nil {
				if _, err := cd.LoadLatest(load); err == nil {
					derr.RolledBack = true
				}
			}
			return out, derr
		}
		out = append(out, stats)
		if cd != nil && (p.iter%every == 0 || p.iter == iterations) {
			if err := cd.Save(p.iter, save); err != nil {
				return out, fmt.Errorf("rl: checkpoint at iteration %d: %w", p.iter, err)
			}
		}
	}
	return out, nil
}
