// Package metrics is the structured performance-telemetry substrate the
// repository's long-running commands emit into: lightweight counters,
// reservoir-backed timers, and append-only timeseries, gathered by a
// Registry that serializes to one report schema (DESIGN.md §8.6).
//
// The design goals, in order:
//
//  1. Allocation-conscious hot paths. Counter.Inc is a single atomic
//     operation; Timer.Observe is an O(1) reservoir insert with no
//     allocations. Instrumenting a trainer iteration or a serving flush
//     must not perturb what it measures.
//  2. One schema. Every producer — rl trainers, swarm runs, the serving
//     engine, the dist coordinator — reports through the same Report shape,
//     so a reader needs no per-area knowledge.
//  3. Self-describing metrics. Each scalar metric and distribution carries
//     its unit and which way is better in the JSON itself. Nothing in the
//     repository judges one report against another: a change is measured by
//     bench/e2e (`make bench-check`, `make bench-ab`).
//
// Like the stats.Reservoir it builds on, a Timer is single-goroutine
// state; a Counter is safe for concurrent use; the Registry's
// own methods are mutex-guarded so producers can register lazily from
// setup code.
package metrics

import (
	"sync/atomic"
	"time"

	"advnet/internal/stats"
)

// Direction states which way a metric is better.
type Direction string

const (
	// Higher marks a metric where larger is better (throughput).
	Higher Direction = "higher"
	// Lower marks a metric where smaller is better (latency).
	Lower Direction = "lower"
	// None marks an informational metric with no better direction
	// (wall-clock seconds, configuration echoes, QoE levels whose meaning is
	// workload-dependent).
	None Direction = "none"
)

// Rule describes a metric to its reader: its unit and its direction.
type Rule struct {
	Unit      string    `json:"unit,omitempty"`
	Direction Direction `json:"direction,omitempty"`
}

// HigherIsBetter returns the rule for a throughput-shaped metric.
func HigherIsBetter(unit string) Rule {
	return Rule{Unit: unit, Direction: Higher}
}

// LowerIsBetter returns the rule for a latency-shaped metric.
func LowerIsBetter(unit string) Rule {
	return Rule{Unit: unit, Direction: Lower}
}

// Info returns the rule for an informational metric.
func Info(unit string) Rule {
	return Rule{Unit: unit, Direction: None}
}

// Counter is a monotonically increasing event count, safe for concurrent
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Timer accumulates a duration distribution through a stats.Reservoir plus
// an exact running total. Like the reservoir it wraps, a Timer is
// single-goroutine state: give each worker its own and merge at read time,
// or confine observation to one loop.
type Timer struct {
	res   *stats.Reservoir
	total float64 // exact sum of observed seconds
}

// newTimer builds a timer whose reservoir is seeded deterministically.
func newTimer(seed uint64) *Timer {
	return &Timer{res: stats.NewReservoir(stats.DefaultReservoirSize, seed)}
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one duration expressed in seconds.
func (t *Timer) ObserveSeconds(s float64) {
	t.res.Add(s)
	t.total += s
}

// Summary digests the observed distribution (seconds). The zero Summary
// when nothing was observed.
func (t *Timer) Summary() stats.Summary {
	if t.res.Count() == 0 {
		return stats.Summary{}
	}
	return stats.Summarize(t.res)
}
