package abr

import (
	"sync/atomic"
	"time"

	"advnet/internal/serve"
)

// PensieveServe is the production-serving twin of Pensieve: per-chunk
// decisions go through a serve.Engine (lock-free snapshot registry, per-core
// batch aggregation, hot reload) instead of a privately held policy network.
// The decision function is identical — argmax of the policy net over
// Features(o), clamped to the ladder — so a PensieveServe backed by a
// snapshot of a policy makes bitwise the same choices as Pensieve holding
// that policy directly.
//
// Unlike Pensieve, a single PensieveServe is safe for concurrent sessions:
// the engine batches requests from any number of goroutines, and the
// fallback protocol, BB, is stateless.
//
// Degradation (DESIGN.md §8.7): when the engine sheds a request (overload,
// expired deadline) or is closed, the session still gets a decision — the
// deterministic fallback protocol answers instead, and the event is counted
// in Fallbacks. A fallback answer is bitwise identical to what the fallback
// protocol would have chosen directly; nothing about the degradation is
// silent, and nothing ever blocks a client on a saturated engine.
type PensieveServe struct {
	eng      *serve.Engine
	label    string
	fallback Protocol      // answers shed/closed requests
	deadline time.Duration // per-request budget passed to SelectDeadline; 0 = engine default

	decisions atomic.Uint64 // total SelectLevel calls
	fallbacks atomic.Uint64 // decisions answered by the fallback
}

// NewPensieveServe wraps a running engine as an ABR protocol. The engine's
// serving architecture must match FeatureSize(levels) of the sessions it
// will drive; a mismatch surfaces as a panic on the first SelectLevel. The
// fallback is buffer-based BB (stateless, deterministic).
func NewPensieveServe(eng *serve.Engine) *PensieveServe {
	return &PensieveServe{eng: eng, label: "pensieve-serve", fallback: NewBB()}
}

// Name implements Protocol.
func (p *PensieveServe) Name() string { return p.label }

// SetName overrides the reported protocol name.
func (p *PensieveServe) SetName(s string) { p.label = s }

// Reset implements Protocol: the serving state lives in the engine, so only
// the fallback is reset.
func (p *PensieveServe) Reset() {
	p.fallback.Reset()
}

// Engine returns the backing engine (for stats, hot reload via its registry,
// or shutdown).
func (p *PensieveServe) Engine() *serve.Engine { return p.eng }

// SetDeadline sets the per-request deadline passed to the engine (0 uses
// the engine's DefaultDeadline). Call before serving begins.
func (p *PensieveServe) SetDeadline(d time.Duration) { p.deadline = d }

// Decisions returns the total SelectLevel calls answered (engine + fallback).
func (p *PensieveServe) Decisions() uint64 { return p.decisions.Load() }

// Fallbacks returns how many decisions the fallback protocol answered
// because the engine shed, timed out, or was closed.
func (p *PensieveServe) Fallbacks() uint64 { return p.fallbacks.Load() }

// FallbackRate returns the fraction of decisions answered by the fallback.
func (p *PensieveServe) FallbackRate() float64 {
	if n := p.decisions.Load(); n > 0 {
		return float64(p.fallbacks.Load()) / float64(n)
	}
	return 0
}

// SelectLevel implements Protocol by submitting the observation's features
// to the engine and clamping the batched-argmax decision to the ladder.
// When the engine cannot answer (shed by admission control, deadline
// expired, engine closed), the fallback protocol decides instead — counted,
// never silent.
func (p *PensieveServe) SelectLevel(o *Observation) int {
	p.decisions.Add(1)
	var d serve.Decision
	var err error
	if p.deadline > 0 {
		d, err = p.eng.SelectDeadline(Features(o), p.deadline)
	} else {
		d, err = p.eng.Select(Features(o)) // engine's DefaultDeadline governs
	}
	if err == nil {
		return clampLevel(d.Level, o.Levels)
	}
	p.fallbacks.Add(1)
	return clampLevel(p.fallback.SelectLevel(o), o.Levels)
}
