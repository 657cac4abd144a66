package metrics

import (
	"encoding/json"
	"hash/fnv"
	"sync"

	"advnet/internal/fsx"
	"advnet/internal/stats"
)

// SchemaVersion is the version stamp of the report schema; bump it when a
// field changes meaning.
const SchemaVersion = 1

// Scalar is one named point metric with its rule.
type Scalar struct {
	Rule
	Value float64 `json:"value"`
}

// Dist is one named distribution with its rule. The rule's direction
// applies to the distribution's order statistics (mean, p50, p95, p99).
type Dist struct {
	Rule
	stats.Summary
}

// Report is the unified machine-readable telemetry schema: one JSON
// document per area (serve, swarm, train, eval, ...), carrying the run's
// configuration, named scalar metrics, named distributions, and optional
// downsampled series. Map keys serialize sorted (encoding/json), so equal
// registries produce byte-identical documents.
type Report struct {
	SchemaVersion int                   `json:"schema_version"`
	Area          string                `json:"area"`
	Config        map[string]any        `json:"config,omitempty"`
	Metrics       map[string]Scalar     `json:"metrics,omitempty"`
	Distributions map[string]Dist       `json:"distributions,omitempty"`
	Series        map[string]SeriesDump `json:"series,omitempty"`
}

// Registry gathers one benchmark area's telemetry and snapshots it into a
// Report. Registration and snapshot methods are mutex-guarded; the
// returned Counter/Timer/Timeseries handles follow their own concurrency
// contracts (counters are atomic, timers and series are single-goroutine).
type Registry struct {
	mu       sync.Mutex
	area     string
	config   map[string]any
	scalars  map[string]Scalar
	counters map[string]*counterEntry
	timers   map[string]*timerEntry
	dists    map[string]Dist
	series   map[string]*seriesEntry
}

type counterEntry struct {
	c    *Counter
	rule Rule
}

type timerEntry struct {
	t    *Timer
	rule Rule
}

type seriesEntry struct {
	ts   *Timeseries
	rule Rule
}

// NewRegistry builds an empty registry for the named area.
func NewRegistry(area string) *Registry {
	return &Registry{
		area:     area,
		config:   map[string]any{},
		scalars:  map[string]Scalar{},
		counters: map[string]*counterEntry{},
		timers:   map[string]*timerEntry{},
		dists:    map[string]Dist{},
		series:   map[string]*seriesEntry{},
	}
}

// SetConfig records one configuration key (echoed verbatim into the
// report).
func (r *Registry) SetConfig(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.config[key] = v
}

// SetMetric records a point metric with its rule, overwriting
// any previous value under the name.
func (r *Registry) SetMetric(name string, value float64, rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scalars[name] = Scalar{Rule: rule, Value: value}
}

// Counter returns the named counter, creating it on first use. The rule of
// the first registration wins.
func (r *Registry) Counter(name string, rule Rule) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[name]
	if !ok {
		e = &counterEntry{c: &Counter{}, rule: rule}
		r.counters[name] = e
	}
	return e.c
}

// Timer returns the named timer, creating it on first use with a reservoir
// seeded deterministically from the name (identical runs retain identical
// samples). The rule of the first registration wins; its direction applies
// to the timer's distribution.
func (r *Registry) Timer(name string, rule Rule) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.timers[name]
	if !ok {
		e = &timerEntry{t: newTimer(nameSeed(name)), rule: rule}
		r.timers[name] = e
	}
	return e.t
}

// SetDistribution records a pre-digested distribution under the rule.
func (r *Registry) SetDistribution(name string, s stats.Summary, rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dists[name] = Dist{Rule: rule, Summary: s}
}

// Series returns the named timeseries, creating it on first use with the
// given initial bucket interval. The rule and interval of the first
// registration win.
func (r *Registry) Series(name string, interval float64, rule Rule) *Timeseries {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.series[name]
	if !ok {
		e = &seriesEntry{ts: NewTimeseries(interval, 0), rule: rule}
		r.series[name] = e
	}
	return e.ts
}

// nameSeed derives a deterministic reservoir seed from a metric name.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// Snapshot digests the registry into a Report. Counters become scalar
// metrics; timers become distributions (seconds). Call it at
// quiescence — timers and series are single-goroutine state.
func (r *Registry) Snapshot() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Area:          r.area,
		Config:        map[string]any{},
		Metrics:       map[string]Scalar{},
		Distributions: map[string]Dist{},
	}
	for k, v := range r.config {
		rep.Config[k] = v
	}
	for k, v := range r.scalars {
		rep.Metrics[k] = v
	}
	for k, e := range r.counters {
		rep.Metrics[k] = Scalar{Rule: e.rule, Value: float64(e.c.Value())}
	}
	for k, e := range r.timers {
		rep.Distributions[k] = Dist{Rule: e.rule, Summary: e.t.Summary()}
	}
	for k, v := range r.dists {
		rep.Distributions[k] = v
	}
	if len(r.series) > 0 {
		rep.Series = map[string]SeriesDump{}
		for k, e := range r.series {
			d := e.ts.Dump()
			d.Rule = e.rule
			rep.Series[k] = d
		}
	}
	return rep
}

// MarshalIndent renders the report as the canonical indented JSON document
// (trailing newline included), the exact bytes WriteJSON persists.
func (rep *Report) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON atomically persists the registry's snapshot to path.
func (r *Registry) WriteJSON(path string) error {
	data, err := r.Snapshot().MarshalIndent()
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, data, 0o644)
}
