package rl

import (
	"encoding/json"
	"fmt"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/par"
)

// Lane is the one rollout unit: a policy/value pair, an RNG stream, an
// environment, a rollout buffer, and the episode state carried across
// iterations (the pending observation, the running episode reward and the
// raw actions since the env's last Reset). A lane is a pure function
//
//	(LaneState, parameters, steps) -> (rollout with GAE applied, next LaneState)
//
// and the three ways of training differ only in how lanes are transported.
// The sequential trainer is one lane sharing the trainer's networks, RNG and
// buffer; VecRunner runs that lane inline plus N−1 clone lanes on goroutines
// and merges their buffers in lane order; internal/dist runs the same lanes
// in other OS processes, shipping LaneState in and a RolloutBatch out. For a
// fixed lane count all three are bitwise interchangeable, which is also why
// a dead worker process is survivable: its lanes' requests are simply sent
// again elsewhere.
//
// GAE is computed per lane, with the lane's own bootstrap value, before any
// merge, so advantages never leak across lanes.
type Lane struct {
	policy Policy
	value  *nn.MLP
	rng    *mathx.RNG
	env    Env
	buf    *rolloutBuffer
	vcache *nn.Cache // value-net forward scratch
	gamma  float64
	lambda float64
	steps  int // in-process rollout share per iteration

	pendObs     []float64 // observation carried across iterations
	pendLive    bool
	pendEnv     Env // the env pendObs came from
	curEpReward float64
	acts        []float64 // raw actions since pendEnv's last Reset, row-major

	// The last collect's outcome, read after join.
	cs        collectStats
	lastValue float64 // GAE bootstrap value

	batch RolloutBatch // what Collect returns, refilled by every Collect
}

// collectStats aggregates what one collect call observed.
type collectStats struct {
	episodes    int
	epRewardSum float64 // total reward of completed episodes
	rewardSum   float64 // reward over all collected steps
}

func (cs *collectStats) add(o collectStats) {
	cs.episodes += o.episodes
	cs.epRewardSum += o.epRewardSum
	cs.rewardSum += o.rewardSum
}

func newLane(policy Policy, value *nn.MLP, rng *mathx.RNG, buf *rolloutBuffer, gamma, lambda float64) *Lane {
	return &Lane{policy: policy, value: value, rng: rng, buf: buf, vcache: value.NewCache(), gamma: gamma, lambda: lambda}
}

// NewLane builds a lane for another process to serve (internal/dist): its
// state is overwritten from a LaneState before every collect — lane hand-off
// is a reset seed plus a replay (see Restore). gamma/lambda must match the
// trainer's PPOConfig (they parameterize the lane-side GAE).
func NewLane(policy Policy, value *nn.MLP, env Env, gamma, lambda float64) (*Lane, error) {
	if env == nil {
		return nil, fmt.Errorf("rl: NewLane with nil env")
	}
	// The RNG seed is irrelevant: Restore overwrites it before every collect.
	l := newLane(policy, value, mathx.NewRNG(1), &rolloutBuffer{}, gamma, lambda)
	l.env = env
	return l, nil
}

// rollout runs the policy for the given number of environment steps,
// appending transitions to the buffer. It resumes a partial episode when the
// environment is unchanged since the last call and starts fresh otherwise
// (e.g. after injecting adversarial traces swaps the env out). All
// stochasticity flows through the lane's RNG. The pending episode's
// actions are recorded at the end, from the buffer, so that State can
// describe the episode by them.
func (l *Lane) rollout(steps int) collectStats {
	var st collectStats
	if steps <= 0 {
		return st
	}
	env := l.env
	obs := l.pendObs
	if !l.pendLive || l.pendEnv != env {
		obs = env.Reset()
		l.curEpReward = 0
		l.acts = l.acts[:0]
	}
	l.pendEnv = env
	l.buf.ensureCap(l.buf.len()+steps, env.ObservationSize(), env.ActionSpec().ActionSize())
	pend := 0 // steps of the pending episode taken in this call
	for step := 0; step < steps; step++ {
		action, logp := l.policy.Sample(l.rng, obs)
		value := l.value.ForwardInto(l.vcache, obs)[0]
		// obs is the env's and valid only until its next Step (see Env):
		// copy it into the rollout slot first.
		t := l.buf.push(obs, action, logp, value)
		next, reward, done := env.Step(action)
		t.reward, t.done = reward, done
		st.rewardSum += reward
		l.curEpReward += reward
		if done {
			st.episodes++
			st.epRewardSum += l.curEpReward
			l.curEpReward = 0
			l.acts = l.acts[:0]
			pend = 0
			obs = env.Reset()
		} else {
			obs = next
			pend++
		}
	}
	for _, t := range l.buf.steps[l.buf.len()-pend:] {
		l.acts = append(l.acts, t.action...)
	}
	// Copy the next-step observation out of the env's buffer, without
	// allocating in steady state.
	l.pendObs = append(l.pendObs[:0], obs...)
	l.pendLive = true
	return st
}

// collect runs the lane's rollout share and its GAE. Its callers contain
// it: a panic anywhere inside (environment step, policy forward pass, buffer
// append) becomes a *par.PanicError that names the lane and carries the
// stack, instead of killing the process.
func (l *Lane) collect(steps int) {
	l.cs = l.rollout(steps)
	// Bootstrap value for the trailing partial episode.
	l.lastValue = 0
	if l.pendLive {
		l.lastValue = l.value.ForwardInto(l.vcache, l.pendObs)[0]
	}
	l.buf.computeGAE(l.gamma, l.lambda, l.lastValue)
}

// abandon discards the lane's partially-collected rollout and pending
// episode, forcing the next collect to reset its environment. Used after a
// lane fault leaves both untrustworthy.
func (l *Lane) abandon() {
	l.buf.reset()
	l.pendLive = false
	l.pendEnv = nil
	l.curEpReward = 0
	l.acts = l.acts[:0]
}

// SetParams overwrites the lane's policy and value parameters with the
// trainer's, validating shapes.
func (l *Lane) SetParams(policy, value [][]float64) error {
	if err := copyParams(l.policy.Params(), policy, "policy"); err != nil {
		return err
	}
	return copyParams(l.value.Params(), value, "value")
}

func copyParams(dst, src [][]float64, which string) error {
	if len(dst) != len(src) {
		return fmt.Errorf("rl: lane %s params have %d groups, want %d", which, len(src), len(dst))
	}
	for i := range dst {
		if len(dst[i]) != len(src[i]) {
			return fmt.Errorf("rl: lane %s params group %d has %d values, want %d", which, i, len(src[i]), len(dst[i]))
		}
		copy(dst[i], src[i])
	}
	return nil
}

// LaneState is the complete state of one lane at an iteration boundary: its
// pending episode and its RNG stream. It is what a collect request carries
// to another process, what a batch carries back, and — in the same JSON
// form — what a checkpoint persists per lane.
type LaneState struct {
	Episode `json:"episode"`
	RNG     mathx.RNGState `json:"rng"`
}

// Episode is the pending-episode part of a LaneState. Every environment is
// deterministic, so an episode is its env's reset seed plus the raw actions
// taken since that Reset: Restore resets the env from the seed and replays
// the actions, which rebuilds the env, the pending observation and the
// episode reward bitwise.
type Episode struct {
	Live    bool            `json:"live"`              // an episode is pending
	Actions []float64       `json:"actions,omitempty"` // its raw actions so far, row-major
	Seed    json.RawMessage `json:"seed,omitempty"`    // the env's ResetSeed; empty when the env is not a SeededEnv
}

// resetSeed returns env's reset seed, or nil when env has none.
func resetSeed(env Env) (json.RawMessage, error) {
	if s, ok := env.(SeededEnv); ok {
		return s.ResetSeed()
	}
	return nil, nil
}

// stateWith captures the lane's state against env: its reset seed, and the
// pending episode when that episode is env's.
func (l *Lane) stateWith(env Env) (LaneState, error) {
	st := LaneState{RNG: l.rng.State()}
	if l.pendLive && l.pendEnv == env {
		st.Live = true
		st.Actions = mathx.CopyOf(l.acts)
	}
	var err error
	if st.Seed, err = resetSeed(env); err != nil {
		return LaneState{}, err
	}
	return st, nil
}

// State captures the lane's current state, the inverse of Restore.
func (l *Lane) State() (LaneState, error) { return l.stateWith(l.env) }

// Restore loads a lane state: the env's reset seed (SeededEnv
// implementations validate before they mutate), then, for a pending
// episode, a Reset and a replay of its actions, then the RNG. The episode is
// bound to this lane's env now, not lazily at the next collect: a resumed
// phase may run zero iterations, and the next collect can then be against a
// different environment entirely, which must start its own episode rather
// than adopt this one. A state that does not fit the env — a seed it lacks
// or refuses, an action row of another width, a non-finite action, more
// actions than the episode takes — is an error and leaves the lane with no
// pending episode, which the next Restore overwrites whole.
func (l *Lane) Restore(st LaneState) error {
	l.abandon()
	if err := l.replay(st.Episode); err != nil {
		return err
	}
	l.rng.SetState(st.RNG)
	return nil
}

// replay puts ep into the lane's env and the lane's pending episode.
func (l *Lane) replay(ep Episode) error {
	env := l.env
	s, seeded := env.(SeededEnv)
	switch {
	case seeded && len(ep.Seed) == 0:
		return fmt.Errorf("rl: lane state carries no reset seed for env type %T", env)
	case !seeded && len(ep.Seed) > 0:
		return fmt.Errorf("rl: lane state carries a reset seed but env type %T has none", env)
	case seeded:
		if err := s.SetResetSeed(ep.Seed); err != nil {
			return fmt.Errorf("rl: restore reset seed: %w", err)
		}
	}
	if !ep.Live {
		if len(ep.Actions) > 0 {
			return fmt.Errorf("rl: lane state carries %d action values but no pending episode", len(ep.Actions))
		}
		return nil
	}
	if env == nil {
		return fmt.Errorf("rl: lane state carries an episode but the lane has no env")
	}
	width := env.ActionSpec().ActionSize()
	if len(ep.Actions)%width != 0 {
		return fmt.Errorf("rl: lane state carries %d action values, not whole rows of %d", len(ep.Actions), width)
	}
	for i, a := range ep.Actions {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("rl: lane state action value %d is %v", i, a)
		}
	}
	l.acts = append(l.acts[:0], ep.Actions...)
	obs := env.Reset()
	var epReward float64
	for i := 0; i < len(l.acts); i += width {
		next, reward, done := env.Step(l.acts[i : i+width])
		epReward += reward
		if done {
			return fmt.Errorf("rl: lane state replays %d actions, but the episode ends after %d", len(ep.Actions)/width, i/width+1)
		}
		obs = next
	}
	l.pendObs = append(l.pendObs[:0], obs...)
	l.pendLive, l.pendEnv, l.curEpReward = true, env, epReward
	return nil
}

// RolloutBatch is one lane's collected rollout with GAE already applied,
// flattened for the wire, plus the collection totals and the lane's
// post-collect state.
type RolloutBatch struct {
	Lane  int
	Steps int

	// Row-major obs/action matrices and per-step scalars, flattened for a
	// compact exact binary wire encoding (math.Float64bits round-trips).
	ObsDim   int
	ActDim   int
	Obs      []float64 // Steps×ObsDim
	Act      []float64 // Steps×ActDim
	Rewards  []float64
	Values   []float64
	LogProbs []float64
	Advs     []float64
	Rets     []float64
	Dones    []bool

	// Collection totals and the GAE bootstrap value.
	Episodes    int
	EpRewardSum float64
	RewardSum   float64
	LastValue   float64

	// End is the lane's state after this collect: what the next iteration's
	// request must carry, and what checkpoints persist.
	End LaneState
}

// Collect runs the lane's rollout share (see collect) and returns it as a
// batch together with the lane's post-collect state. The batch is the
// lane's own, refilled in place and valid until its next Collect (End is
// fresh each time). A panic inside comes back as a *par.PanicError naming
// the lane — the serving process survives and reports it instead of dying.
func (l *Lane) Collect(lane, steps int) (_ *RolloutBatch, err error) {
	defer par.Contain(lane, &err) // the export and the env's ResetSeed, too
	l.collect(steps)
	b := &l.batch
	b.Lane = lane
	b.Episodes = l.cs.episodes
	b.EpRewardSum = l.cs.epRewardSum
	b.RewardSum = l.cs.rewardSum
	b.LastValue = l.lastValue
	exportBuffer(l.buf, b)
	if b.End, err = l.State(); err != nil {
		return nil, err
	}
	l.buf.reset()
	return b, nil
}

// exportBuffer flattens a lane buffer into the batch's row-major arrays,
// reusing their storage.
func exportBuffer(buf *rolloutBuffer, b *RolloutBatch) {
	n := buf.len()
	b.Steps, b.ObsDim, b.ActDim = n, 0, 0
	if n > 0 {
		b.ObsDim = len(buf.steps[0].obs)
		b.ActDim = len(buf.steps[0].action)
	}
	b.Obs = mathx.Resize(b.Obs, n*b.ObsDim)
	b.Act = mathx.Resize(b.Act, n*b.ActDim)
	for _, col := range [...]*[]float64{&b.Rewards, &b.Values, &b.LogProbs, &b.Advs, &b.Rets} {
		*col = mathx.Resize(*col, n)
	}
	b.Dones = mathx.Resize(b.Dones, n)
	for i := range buf.steps {
		s := &buf.steps[i]
		copy(b.Obs[i*b.ObsDim:(i+1)*b.ObsDim], s.obs)
		copy(b.Act[i*b.ActDim:(i+1)*b.ActDim], s.action)
		b.Rewards[i] = s.reward
		b.Values[i] = s.value
		b.LogProbs[i] = s.logp
		b.Advs[i] = s.advantage
		b.Rets[i] = s.ret
		b.Dones[i] = s.done
	}
}

// Validate checks the batch's internal consistency (array lengths against
// Steps and the row widths) so a corrupt or truncated wire decode cannot
// feed partial rows into the update.
func (b *RolloutBatch) Validate() error {
	if b.Steps < 0 {
		return fmt.Errorf("rl: batch lane %d has %d steps", b.Lane, b.Steps)
	}
	if b.Steps == 0 {
		return nil
	}
	if b.ObsDim <= 0 || b.ActDim <= 0 {
		return fmt.Errorf("rl: batch lane %d has dims %dx%d", b.Lane, b.ObsDim, b.ActDim)
	}
	if len(b.Obs) != b.Steps*b.ObsDim || len(b.Act) != b.Steps*b.ActDim {
		return fmt.Errorf("rl: batch lane %d matrix sizes %d/%d do not match %d steps", b.Lane, len(b.Obs), len(b.Act), b.Steps)
	}
	for _, f := range [...]struct {
		name string
		n    int
	}{
		{"rewards", len(b.Rewards)}, {"values", len(b.Values)}, {"logprobs", len(b.LogProbs)},
		{"advs", len(b.Advs)}, {"rets", len(b.Rets)}, {"dones", len(b.Dones)},
	} {
		if f.n != b.Steps {
			return fmt.Errorf("rl: batch lane %d %s has %d entries, want %d", b.Lane, f.name, f.n, b.Steps)
		}
	}
	return nil
}

// importBatch appends a batch's transitions (with their precomputed
// advantages and returns) to the trainer buffer, exactly as pushFrom merges
// an in-process lane's buffer. The caller has reserved the buffer's room.
func importBatch(buf *rolloutBuffer, b *RolloutBatch) {
	for i := 0; i < b.Steps; i++ {
		buf.steps = append(buf.steps, transition{
			obs:       arenaSlot(buf.obsArena, &buf.obsUsed, b.Obs[i*b.ObsDim:(i+1)*b.ObsDim]),
			action:    arenaSlot(buf.actArena, &buf.actUsed, b.Act[i*b.ActDim:(i+1)*b.ActDim]),
			reward:    b.Rewards[i],
			done:      b.Dones[i],
			logp:      b.LogProbs[i],
			value:     b.Values[i],
			advantage: b.Advs[i],
			ret:       b.Rets[i],
		})
	}
}
