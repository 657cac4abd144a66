package rl

import (
	"advnet/internal/metrics"
)

// TrainMetrics is the telemetry hook a trainer emits through when one is
// attached (SetMetrics): an iteration counter plus rollout/update phase
// timers (bench/e2e's rl.rollout_s / rl.update_s probes attach one).
// The rollout timer covers environment interaction (collection across all
// workers for a VecRunner); the update timer covers advantage computation
// and the gradient steps. Timers are single-goroutine state — both phases
// are observed from the training loop's goroutine, never from rollout
// workers — so attaching metrics is allocation-free on the hot path and
// cannot perturb determinism (no RNG draws, no shared state with the
// collectors).
type TrainMetrics struct {
	Iterations *metrics.Counter
	Rollout    *metrics.Timer
	Update     *metrics.Timer
}

// NewTrainMetrics wires the standard train-area instrument names into reg:
// "train_iterations", "rollout_s", "update_s".
func NewTrainMetrics(reg *metrics.Registry) *TrainMetrics {
	return &TrainMetrics{
		Iterations: reg.Counter("train_iterations", metrics.Info("iterations")),
		Rollout:    reg.Timer("rollout_s", metrics.LowerIsBetter("s")),
		Update:     reg.Timer("update_s", metrics.LowerIsBetter("s")),
	}
}

// SetMetrics attaches (or, with nil, detaches) training telemetry.
func (p *PPO) SetMetrics(m *TrainMetrics) { p.met = m }
