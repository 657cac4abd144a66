// Package trace defines time-ordered network-condition traces — the paper's
// central artifact ("a time-ordered list of network conditions like
// bandwidth, latency and loss rate") — together with generators for the
// random baseline and for synthetic stand-ins of the FCC-broadband [8] and
// Norway-3G/HSDPA [19] datasets, and JSON serialization.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// Point is one fixed-condition interval of a trace.
type Point struct {
	Duration      float64 `json:"duration"`  // seconds the conditions hold
	BandwidthMbps float64 `json:"bandwidth"` // link capacity in Mbps
	LatencyMs     float64 `json:"latency"`   // one-way propagation delay in ms
	LossRate      float64 `json:"loss"`      // random loss probability in [0,1]
}

// Trace is a named sequence of condition intervals.
type Trace struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// minPassBits is the least one pass over a trace must deliver: one
// 1500-byte packet. A trace that delivers less stretches a single chunk
// download over astronomically many passes, and one with no positive
// bandwidth never finishes one.
const minPassBits = 12000

// Validate checks that every point has a finite positive duration, finite
// non-negative bandwidth and latency, and a loss rate in [0,1]; that the
// durations sum to a finite total; and that one pass over the trace
// delivers at least one packet (minPassBits).
func (t *Trace) Validate() error {
	if len(t.Points) == 0 {
		return fmt.Errorf("trace %q: empty trace", t.Name)
	}
	var total, bits float64
	for i, p := range t.Points {
		switch {
		case !(p.Duration > 0) || math.IsInf(p.Duration, 0):
			return fmt.Errorf("trace %q: point %d duration %v", t.Name, i, p.Duration)
		case !(p.BandwidthMbps >= 0) || math.IsInf(p.BandwidthMbps, 0):
			return fmt.Errorf("trace %q: point %d bandwidth %v", t.Name, i, p.BandwidthMbps)
		case !(p.LatencyMs >= 0) || math.IsInf(p.LatencyMs, 0):
			return fmt.Errorf("trace %q: point %d latency %v", t.Name, i, p.LatencyMs)
		case !(p.LossRate >= 0 && p.LossRate <= 1):
			return fmt.Errorf("trace %q: point %d loss %v", t.Name, i, p.LossRate)
		}
		if total += p.Duration; math.IsInf(total, 0) {
			return fmt.Errorf("trace %q: point %d duration %v overflows the total duration", t.Name, i, p.Duration)
		}
		bits += p.BandwidthMbps * 1e6 * p.Duration
	}
	if !(bits >= minPassBits) {
		return fmt.Errorf("trace %q: one pass over points 0 to %d delivers %v bits, less than one %d-bit packet", t.Name, len(t.Points)-1, bits, minPassBits)
	}
	return nil
}

// TotalDuration returns the sum of the point durations in seconds.
func (t *Trace) TotalDuration() float64 {
	var d float64
	for _, p := range t.Points {
		d += p.Duration
	}
	return d
}

// At returns the conditions in effect at the given time. Times beyond the end
// of the trace wrap around (traces loop), matching how the Pensieve simulator
// replays datasets.
func (t *Trace) At(time float64) Point {
	if len(t.Points) == 0 {
		panic("trace: At on empty trace")
	}
	total := t.TotalDuration()
	time = math.Mod(time, total)
	if time < 0 {
		time += total
	}
	for _, p := range t.Points {
		if time < p.Duration {
			return p
		}
		time -= p.Duration
	}
	return t.Points[len(t.Points)-1]
}

// Bandwidths returns the bandwidth series of the trace.
func (t *Trace) Bandwidths() []float64 {
	out := make([]float64, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.BandwidthMbps
	}
	return out
}

// Smoothness returns the mean absolute difference between consecutive
// bandwidth values — the quantity the paper's smoothing penalty suppresses.
// Lower is smoother.
func (t *Trace) Smoothness() float64 {
	if len(t.Points) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(t.Points); i++ {
		sum += math.Abs(t.Points[i].BandwidthMbps - t.Points[i-1].BandwidthMbps)
	}
	return sum / float64(len(t.Points)-1)
}

// Dataset is a collection of traces, e.g. a training or test set.
type Dataset struct {
	Name   string   `json:"name"`
	Traces []*Trace `json:"traces"`
}

// Merge returns a new dataset containing the traces of d followed by those of
// other (shallow copies).
func (d *Dataset) Merge(other *Dataset) *Dataset {
	out := &Dataset{Name: d.Name + "+" + other.Name}
	out.Traces = append(out.Traces, d.Traces...)
	out.Traces = append(out.Traces, other.Traces...)
	return out
}

// Validate validates every trace in the dataset.
func (d *Dataset) Validate() error {
	if len(d.Traces) == 0 {
		return errors.New("trace: empty dataset")
	}
	for i, t := range d.Traces {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("dataset %q, trace %d: %w", d.Name, i, err)
		}
	}
	return nil
}
