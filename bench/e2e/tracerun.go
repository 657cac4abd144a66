package main

import (
	"fmt"
	"time"
)

const (
	tracedUnits = 5 // traced and untraced units compared for trace_overhead, at least
	stagedUnits = 3 // staged robustify units the core.* phase times come from
)

// corePhases are the spans the staged robustify unit is made of, in order,
// and the per-layer metric each feeds.
var corePhases = []struct{ span, metric string }{
	{"core.phase1", "core.phase1_s"},
	{"core.adv_train", "core.adv_train_s"},
	{"core.trace_gen", "core.trace_gen_s"},
	{"core.phase2", "core.phase2_s"},
	{"core.eval", "core.eval_s"},
}

// traceRun is the separate traced run: it never reports an end-to-end
// metric. It (a) alternates untraced and traced units of the chosen workload
// and reports the relative cost of tracing, checking that both produce the
// same digest; (b) takes the robustify unit apart into its phases; (c) runs
// the layer probes. Every per-layer metric is reported whatever the
// workload, so one traced run of any workload gives the whole ladder.
func traceRun(w workload, seed uint64, seconds float64, traceOut string) (result, error) {
	res := result{correct: true}
	l := &layers{values: map[string]float64{}}
	sp := newSpans()

	if err := traceOverhead(w, seed, seconds, sp, l, &res); err != nil {
		return res, err
	}
	if err := tracePhases(seed, sp, l, &res); err != nil {
		return res, err
	}
	if err := runProbes(l, seed); err != nil {
		return res, err
	}
	for name := range layerUnits {
		if _, ok := l.values[name]; !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	res.values = l.values
	if res.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("%d of %d ops failed", res.failed, res.attempted))
	}
	if traceOut != "" {
		sp.finish()
		if err := sp.write(traceOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(sp.list), traceOut))
	}
	return res, nil
}

// runUnit runs one unit, traced when sp is non-nil, and returns its wall
// time (span bookkeeping included: that is the overhead being measured).
func runUnit(inst instance, sp *spans) (float64, unitOut, error) {
	t0 := time.Now()
	sp.beginUnit()
	out, err := inst.unit(sp)
	sp.endUnit()
	return time.Since(t0).Seconds(), out, err
}

func traceOverhead(w workload, seed uint64, seconds float64, sp *spans, l *layers, res *result) error {
	inst, err := w.setup(seed)
	if err != nil {
		return err
	}
	defer inst.close()
	var plain, traced []float64
	var want [32]byte
	// Pairs of one untraced and one traced unit, for a third of the run's
	// seconds (the phases and the probes take the rest); the first pair
	// warms up and fixes the digest both kinds must reproduce.
	start := time.Now()
	for i := 0; i <= tracedUnits || time.Since(start).Seconds() < seconds/3; i++ {
		for _, rec := range []*spans{nil, sp} {
			seconds, out, err := runUnit(inst, rec)
			if err != nil {
				return err
			}
			sum, failed := out.verify()
			if i == 0 {
				want = sum
				continue
			}
			res.attempted += out.ops
			res.failed += failed
			if sum != want {
				res.correct = false
				res.notes = append(res.notes, "traced and untraced units disagree on their digest")
			}
			if rec == nil {
				plain = append(plain, seconds)
			} else {
				traced = append(traced, seconds)
			}
		}
	}
	stat := fastest
	if w.medianUnit {
		stat = median
	}
	l.set("trace_overhead", stat(traced)/stat(plain)-1)
	return nil
}

// tracePhases runs the staged robustify unit and reports the phases of the
// fastest one, so that they add up to a unit that was actually observed.
func tracePhases(seed uint64, sp *spans, l *layers, res *result) error {
	inst, err := setupRobustify(seed)
	if err != nil {
		return err
	}
	first := len(sp.list)
	best, bestUnit := 0.0, -1
	for i := 0; i < stagedUnits; i++ {
		seconds, out, err := runUnit(inst, sp)
		if err != nil {
			return err
		}
		_, failed := out.verify()
		res.attempted += out.ops
		res.failed += failed
		if bestUnit < 0 || seconds < best {
			best, bestUnit = seconds, sp.unit
		}
	}
	var covered float64
	for _, ph := range corePhases {
		for _, s := range sp.list[first:] {
			if s.Unit == bestUnit && s.Name == ph.span {
				d := float64(s.End-s.Start) / 1e9
				l.set(ph.metric, d)
				covered += d
			}
		}
	}
	l.set("core.cover_share", covered/best)
	if covered/best < 0.90 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("phases cover %.2f of the traced unit, want at least 0.90", covered/best))
	}
	return nil
}
