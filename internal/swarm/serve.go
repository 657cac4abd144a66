package swarm

import (
	"time"

	"advnet/internal/abr"
	"advnet/internal/metrics"
	"advnet/internal/serve"
)

// ServeMode plugs the policy-serving engine into a swarm as its clients'
// ABR protocol: every simulated viewer's per-chunk decision goes through
// one shared serve.Engine, so the serving stack is exercised by the swarm's
// realistic request interarrivals — staggered session starts, buffer-driven
// pacing, rebuffer bursts — instead of a synthetic storm. This is the
// measurement rig behind the degradation contract (DESIGN.md §8.7):
// shed-rate, fallback-rate, and serving latency under a population of
// clients the engine cannot always keep up with.
//
// Determinism caveat: swarm results are bitwise worker-count-invariant only
// while the engine answers every request (decision identity makes batching
// order irrelevant). Once requests shed, which requests degrade to the
// fallback depends on real-time engine load, so QoE aggregates become
// run-to-run noisy — that is the point of the mode, and why its QoE metrics
// are emitted as informational.
type ServeMode struct {
	proto *abr.PensieveServe
}

// NewServeMode wraps a running engine. deadline is the per-decision budget
// (0 uses the engine's DefaultDeadline); decisions the engine sheds are
// answered by the protocol's fallback (BB by default — see
// abr.NewPensieveServe).
func NewServeMode(eng *serve.Engine, deadline time.Duration) *ServeMode {
	p := abr.NewPensieveServe(eng)
	p.SetName("pensieve-serve-swarm")
	if deadline > 0 {
		p.SetDeadline(deadline)
	}
	return &ServeMode{proto: p}
}

// Proto returns the shared engine-backed protocol (for counter reads).
func (m *ServeMode) Proto() *abr.PensieveServe { return m.proto }

// NewProtocol is a Config.NewProtocol: every client shares the one
// engine-backed protocol (the engine batches their concurrent requests;
// the default fallback is stateless, so sharing is safe).
func (m *ServeMode) NewProtocol(int) abr.Protocol { return m.proto }

// EmitMetrics records the serving-side degradation telemetry of a completed
// swarm run: decision/fallback counts and rates plus the engine's shed and
// panic counters. Rates are informational — they measure offered load vs
// capacity, not code quality — while the counts let dashboards integrate
// over runs.
func (m *ServeMode) EmitMetrics(reg *metrics.Registry) {
	eng := m.proto.Engine()
	reg.SetMetric("serve_decisions", float64(m.proto.Decisions()), metrics.Info("decisions"))
	reg.SetMetric("serve_fallbacks", float64(m.proto.Fallbacks()), metrics.Info("decisions"))
	reg.SetMetric("serve_fallback_rate", m.proto.FallbackRate(), metrics.Info("fraction"))
	reg.SetMetric("serve_shed_queue", float64(eng.ShedQueue()), metrics.Info("requests"))
	reg.SetMetric("serve_shed_deadline", float64(eng.ShedDeadline()), metrics.Info("requests"))
	reg.SetMetric("serve_shard_panics", float64(eng.Panics()), metrics.Info("panics"))
}
