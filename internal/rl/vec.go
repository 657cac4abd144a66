package rl

import (
	"fmt"
	"time"

	"advnet/internal/par"
)

// EnvFactory builds the environment instance for one rollout lane. It is
// called once per lane, in lane order, at VecRunner construction time.
// Lane 0 always exists; factories that need per-lane randomness should
// derive it deterministically from the lane index so runs are reproducible.
type EnvFactory func(worker int) Env

// VecRunner drives W in-process lanes to collect one PPO rollout per
// iteration, then performs the synchronized PPO update on the merged data.
//
// Determinism contract:
//
//   - Lane 0 *is* the sequential trainer's lane: it shares the PPO's policy,
//     value network, RNG, rollout buffer, and pending-episode state. The
//     sequential trainer is the W=1 runner; binding lane 0 to an env (here
//     or through PPO.Train) rebinds it for every holder.
//   - Lanes ≥ 1 hold policy/value clones and RNG streams split from the
//     trainer RNG at construction, in lane order. For any fixed W, two runs
//     with the same seed produce identical trajectories and IterStats
//     regardless of goroutine scheduling: each lane's stream is private,
//     and buffers/stats are merged in lane order after all lanes join.
//
// After each update the new weights are copied back to every clone.
type VecRunner struct {
	ppo   *PPO
	lanes []*Lane
}

// laneSteps divides RolloutSteps across lanes (earlier lanes take the
// remainder), so the data volume per iteration is independent of the lane
// count.
func (p *PPO) laneSteps(lanes int) []int {
	steps := make([]int, lanes)
	for i := range steps {
		steps[i] = p.cfg.RolloutSteps / lanes
		if i < p.cfg.RolloutSteps%lanes {
			steps[i]++
		}
	}
	return steps
}

// LaneSteps returns each lane's rollout share per iteration.
func (p *PPO) LaneSteps(lanes int) ([]int, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("rl: LaneSteps lanes=%d", lanes)
	}
	return p.laneSteps(lanes), nil
}

// NewVecRunner builds W lanes around an existing PPO trainer. The factory is
// invoked once per lane, in order, and the trainer RNG is split once per
// lane beyond the first.
func NewVecRunner(p *PPO, factory EnvFactory, workers int) (*VecRunner, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("rl: NewVecRunner workers=%d", workers)
	}
	if factory == nil {
		return nil, fmt.Errorf("rl: NewVecRunner nil factory")
	}
	v := &VecRunner{ppo: p}
	for i, steps := range p.laneSteps(workers) {
		env := factory(i)
		if env == nil {
			return nil, fmt.Errorf("rl: EnvFactory returned nil env for worker %d", i)
		}
		l := p.seq.lanes[0]
		if i > 0 {
			policy, err := ClonePolicy(p.Policy)
			if err != nil {
				return nil, err
			}
			l = newLane(policy, p.Value.Clone(), p.rng.Split(), &rolloutBuffer{}, p.cfg.Gamma, p.cfg.Lambda)
		}
		l.env, l.steps = env, steps
		v.lanes = append(v.lanes, l)
	}
	return v, nil
}

// NewLaneStates builds the initial lane states for a run whose lanes live in
// other processes, consuming the trainer RNG exactly as NewVecRunner does
// (one Split per lane beyond the first, in lane order) so that the two are
// bitwise interchangeable — without NewVecRunner's network clones, which a
// coordinator has no use for. The factory's environments must implement
// EnvCheckpointer and are used only to capture initial state — worker
// processes rebuild their own from the domain configuration.
func (p *PPO) NewLaneStates(factory EnvFactory, lanes int) ([]LaneState, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("rl: NewLaneStates lanes=%d", lanes)
	}
	if factory == nil {
		return nil, fmt.Errorf("rl: NewLaneStates nil factory")
	}
	states := make([]LaneState, lanes)
	for i := range states {
		env := factory(i)
		ec, ok := env.(EnvCheckpointer)
		if !ok {
			return nil, fmt.Errorf("rl: lane %d env type %T does not implement EnvCheckpointer (required for distributed training)", i, env)
		}
		data, err := ec.EnvState()
		if err != nil {
			return nil, fmt.Errorf("rl: lane %d initial env state: %w", i, err)
		}
		states[i].Env = data
		if i > 0 {
			states[i].RNG = p.rng.Split().State()
		}
	}
	// Lane 0 shares the trainer RNG; its state is re-sent fresh every
	// iteration, but seed it with the post-split trainer state so a
	// zero-iteration run still checkpoints coherently.
	states[0].RNG = p.rng.State()
	return states, nil
}

// TrainIteration collects one rollout across the lanes and performs the PPO
// update. A panic inside a lane is contained: it surfaces as a
// *par.PanicError naming the lane, every lane's partial rollout and pending
// episode are discarded (the next iteration resets every environment), and
// the iteration counter is not advanced.
func (v *VecRunner) TrainIteration() (IterStats, error) {
	p := v.ppo
	var t0 time.Time
	if p.met != nil {
		t0 = time.Now()
	}
	// One lane per worker; lane 0 runs inline, so with W=1 the rollout
	// starts no goroutine (the update's value half always runs on one).
	if err := par.Run(len(v.lanes), func(w int) error {
		v.lanes[w].collect(v.lanes[w].steps)
		return nil
	}); err != nil {
		for _, l := range v.lanes {
			l.abandon()
		}
		return IterStats{Iteration: p.iter}, err
	}
	// The faulted path above skips observation: an aborted iteration has no
	// well-defined phase split and must not skew the timer distributions.
	if p.met != nil {
		p.met.Rollout.Observe(time.Since(t0))
	}

	// Lane 0's transitions are already in p.buf; append the other lanes'
	// finished buffers in lane order.
	var cs collectStats
	for _, l := range v.lanes {
		if l.buf != &p.buf {
			p.buf.pushFrom(l.buf)
			l.buf.reset()
		}
		cs.add(l.cs)
	}
	stats := p.applyRollout(cs)
	// A sync failure means the clones no longer mirror the trainer, so the
	// runner must not continue collecting.
	return stats, v.syncParams()
}

// syncParams copies the trainer's weights into the clone lanes (lane 0
// already shares them).
func (v *VecRunner) syncParams() error {
	if len(v.lanes) == 1 {
		return nil
	}
	policy, value := v.ppo.Policy.Params(), v.ppo.Value.Params()
	for i, l := range v.lanes[1:] {
		if err := l.SetParams(policy, value); err != nil {
			return fmt.Errorf("rl: weight sync worker %d: %w", i+1, err)
		}
	}
	return nil
}

// Train runs the given number of iterations, stopping at the first iteration
// error (lane panic, weight-sync failure) and returning the stats collected
// so far alongside it.
func (v *VecRunner) Train(iterations int) ([]IterStats, error) {
	out := make([]IterStats, 0, iterations)
	for i := 0; i < iterations; i++ {
		stats, err := v.TrainIteration()
		if err != nil {
			return out, err
		}
		out = append(out, stats)
	}
	return out, nil
}

// TrainCheckpointed runs training with periodic atomic checkpoints and the
// divergence watchdog (see TrainLoop). It resumes from the newest loadable
// checkpoint in ckpt.Dir when one exists (falling back past corrupt files),
// runs until the trainer has completed `iterations` total iterations, and
// returns the stats of the iterations executed by this call.
func (v *VecRunner) TrainCheckpointed(iterations int, ckpt CheckpointConfig) ([]IterStats, error) {
	var cd *CheckpointDir
	if ckpt.Dir != "" {
		cd = &CheckpointDir{Dir: ckpt.Dir, Keep: ckpt.Keep}
		if _, _, err := cd.Latest(); err == nil {
			if _, err := cd.LoadLatest(v.LoadCheckpoint); err != nil {
				return nil, err
			}
		}
	}
	return v.ppo.TrainLoop(iterations, cd, ckpt.Every, v.TrainIteration, v.SaveCheckpoint, v.LoadCheckpoint)
}

// laneStates captures every lane's current state.
func (v *VecRunner) laneStates() ([]LaneState, error) {
	states := make([]LaneState, len(v.lanes))
	for i, l := range v.lanes {
		var err error
		if states[i], err = l.State(); err != nil {
			return nil, fmt.Errorf("rl: checkpoint worker %d: %w", i, err)
		}
	}
	return states, nil
}

// SaveCheckpoint writes a full checkpoint of the runner and its underlying
// trainer (see PPO.SaveLaneCheckpoint). Call only at iteration boundaries.
func (v *VecRunner) SaveCheckpoint(path string) error {
	states, err := v.laneStates()
	if err != nil {
		return err
	}
	return v.ppo.SaveLaneCheckpoint(path, states)
}

// LoadCheckpoint restores a trainer checkpoint into the runner. The runner
// must have been constructed with the same lane count, configuration, and
// environment factory as the one that saved it; every piece of stochastic
// state (trainer RNG, lane RNGs, env states, Adam moments, parameters) is
// then overwritten from the checkpoint, so whatever randomness construction
// consumed is irrelevant to the resumed run. A corrupt, truncated, or
// mismatched checkpoint returns an error and leaves no partial state
// guarantee — callers should fall back to an older checkpoint (see
// CheckpointDir.LoadLatest).
func (v *VecRunner) LoadCheckpoint(path string) error {
	states, err := v.ppo.LoadLaneCheckpoint(path)
	if err != nil {
		return err
	}
	if len(states) != len(v.lanes) {
		return fmt.Errorf("rl: checkpoint %s has %d lanes, runner has %d", path, len(states), len(v.lanes))
	}
	if err := v.syncParams(); err != nil {
		return err
	}
	for i, l := range v.lanes {
		if err := l.Restore(states[i]); err != nil {
			return fmt.Errorf("rl: checkpoint worker %d: %w", i, err)
		}
	}
	return nil
}

// TrainParallel builds a VecRunner with the given lane count and runs it for
// the given iterations. With workers=1 the result is bit-for-bit identical
// to Train against factory(0).
func (p *PPO) TrainParallel(factory EnvFactory, workers, iterations int) ([]IterStats, error) {
	v, err := NewVecRunner(p, factory, workers)
	if err != nil {
		return nil, err
	}
	return v.Train(iterations)
}
