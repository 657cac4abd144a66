// Package rl implements the reinforcement-learning machinery the paper's
// framework is built on: an episodic environment interface, categorical and
// diagonal-Gaussian stochastic policies over nn.MLP function approximators,
// generalized advantage estimation (GAE), and Proximal Policy Optimization
// (PPO, Schulman et al. 2017) — the algorithm the paper trains both its
// adversaries and its RL-based protocols with.
package rl

import "advnet/internal/mathx"

// ActionSpec describes an environment's action space. Exactly one of the
// discrete or continuous forms applies.
type ActionSpec struct {
	// Discrete selects a categorical action space with N choices. Actions
	// are encoded as a single-element []float64 holding the choice index.
	Discrete bool
	N        int

	// For continuous spaces, Dim is the action dimensionality. Low and
	// High (len Dim each) bound the values the environment accepts;
	// policies may emit values outside the bounds (exploration noise) and
	// environments are expected to clip, mirroring the paper's remark that
	// "exploration and clipping done by PPO will return the actions to the
	// acceptable range".
	Dim  int
	Low  []float64
	High []float64
}

// ActionSize returns the length of the action vector exchanged with the
// environment (1 for discrete).
func (s ActionSpec) ActionSize() int {
	if s.Discrete {
		return 1
	}
	return s.Dim
}

// Env is an episodic reinforcement-learning environment. Implementations are
// single-goroutine; drive each instance from one trainer only.
//
// The observation Reset and Step return belongs to the environment: it is
// valid until that environment's next Reset or Step, which may overwrite it
// in place, and callers must not modify it. A caller that needs it longer
// copies it (a lane copies each observation into its rollout slot before it
// steps), so an environment can return one reused buffer and step without
// allocating.
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action, advances the environment one step, and
	// returns the next observation, the reward for the transition, and
	// whether the episode terminated.
	Step(action []float64) (obs []float64, reward float64, done bool)
	// ObservationSize returns the length of observation vectors.
	ObservationSize() int
	// ActionSpec describes the action space.
	ActionSpec() ActionSpec
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
