package rl

import (
	"math"

	"advnet/internal/mathx"
)

// transition is one (s, a, r) step plus the bookkeeping PPO needs.
type transition struct {
	obs    []float64
	action []float64
	reward float64
	done   bool
	logp   float64 // log π_old(a|s) at collection time
	value  float64 // V_old(s) at collection time

	advantage float64
	ret       float64 // advantage + value (the value target)
}

// rolloutBuffer accumulates transitions for one PPO iteration. Observation
// and action vectors are stored in two flat arenas reserved up front via
// ensureCap, so a steady-state rollout performs no per-step heap allocations;
// push falls back to individual copies only when the arena is exhausted.
type rolloutBuffer struct {
	steps []transition

	obsArena []float64
	actArena []float64
	obsUsed  int
	actUsed  int
}

func (b *rolloutBuffer) len() int { return len(b.steps) }

func (b *rolloutBuffer) reset() {
	b.steps = b.steps[:0]
	b.obsUsed = 0
	b.actUsed = 0
}

// ensureCap reserves room for n transitions of the given observation/action
// dimensions, growing the arenas and the step slice as needed. Existing
// contents are preserved.
func (b *rolloutBuffer) ensureCap(n, obsDim, actDim int) {
	if cap(b.steps) < n {
		grown := make([]transition, len(b.steps), n)
		copy(grown, b.steps)
		b.steps = grown
	}
	if want := n * obsDim; cap(b.obsArena) < want {
		grown := make([]float64, want)
		copy(grown, b.obsArena[:b.obsUsed])
		b.obsArena = grown
	} else {
		b.obsArena = b.obsArena[:cap(b.obsArena)]
	}
	if want := n * actDim; cap(b.actArena) < want {
		grown := make([]float64, want)
		copy(grown, b.actArena[:b.actUsed])
		b.actArena = grown
	} else {
		b.actArena = b.actArena[:cap(b.actArena)]
	}
}

// arenaSlot copies src into the arena and returns the stored slice, falling
// back to a fresh allocation when the arena is full.
func arenaSlot(arena []float64, used *int, src []float64) []float64 {
	if *used+len(src) > len(arena) {
		return mathx.CopyOf(src)
	}
	dst := arena[*used : *used+len(src) : *used+len(src)]
	copy(dst, src)
	*used += len(src)
	return dst
}

// push appends a transition, copying obs and action into the arenas, and
// returns it for the caller to fill in the step's reward and done flag
// (valid until the next push). The stored slices are owned by the buffer and
// remain valid until reset.
func (b *rolloutBuffer) push(obs, action []float64, logp, value float64) *transition {
	b.steps = append(b.steps, transition{
		obs:    arenaSlot(b.obsArena, &b.obsUsed, obs),
		action: arenaSlot(b.actArena, &b.actUsed, action),
		logp:   logp,
		value:  value,
	})
	return &b.steps[len(b.steps)-1]
}

// pushFrom appends every transition of src, including computed advantages and
// returns, copying vectors into b's arenas (grown first to hold them).
func (b *rolloutBuffer) pushFrom(src *rolloutBuffer) {
	if src.len() == 0 {
		return
	}
	b.ensureCap(b.len()+src.len(), len(src.steps[0].obs), len(src.steps[0].action))
	for i := range src.steps {
		s := &src.steps[i]
		b.steps = append(b.steps, transition{
			obs:       arenaSlot(b.obsArena, &b.obsUsed, s.obs),
			action:    arenaSlot(b.actArena, &b.actUsed, s.action),
			reward:    s.reward,
			done:      s.done,
			logp:      s.logp,
			value:     s.value,
			advantage: s.advantage,
			ret:       s.ret,
		})
	}
}

// computeGAE fills advantages and returns using generalized advantage
// estimation (Schulman et al. 2016). lastValue bootstraps the value of the
// state following the final stored transition; it must be 0 if that
// transition ended an episode.
func (b *rolloutBuffer) computeGAE(gamma, lambda, lastValue float64) {
	adv := 0.0
	nextValue := lastValue
	for i := len(b.steps) - 1; i >= 0; i-- {
		s := &b.steps[i]
		nonTerminal := 1.0
		if s.done {
			nonTerminal = 0
			adv = 0
			nextValue = 0
		}
		delta := s.reward + gamma*nextValue*nonTerminal - s.value
		adv = delta + gamma*lambda*nonTerminal*adv
		s.advantage = adv
		s.ret = adv + s.value
		nextValue = s.value
	}
}

// normalizeAdvantages standardizes the stored advantages to zero mean and
// unit variance, the usual PPO stabilization.
func (b *rolloutBuffer) normalizeAdvantages() {
	n := len(b.steps)
	if n < 2 {
		return
	}
	var mean float64
	for _, s := range b.steps {
		mean += s.advantage
	}
	mean /= float64(n)
	var variance float64
	for _, s := range b.steps {
		d := s.advantage - mean
		variance += d * d
	}
	variance /= float64(n)
	std := math.Sqrt(variance) + 1e-8
	for i := range b.steps {
		b.steps[i].advantage = (b.steps[i].advantage - mean) / std
	}
}
