package core

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/par"
	"advnet/internal/rl"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

// The paper's Discussion (§5, "Guiding protocol development") envisions
// continuous integration in which "using an adversary to create inputs that
// cause the exact problem in question, instead of running a fixed set of
// traces that caused problems in an earlier version of the code, would help
// developers create a more robust fix." This file implements that harness:
// a RegressionSuite records a protocol's QoE on adversarial traces (and can
// re-run the adversary online), and Check fails when a later version of the
// protocol regresses beyond a tolerance.

// ABRRegressionSuite is a recorded performance baseline for one ABR protocol
// on one adversarial workload.
type ABRRegressionSuite struct {
	ProtocolName string         `json:"protocol"`
	Traces       *trace.Dataset `json:"traces"`
	RTTSeconds   float64        `json:"rtt_seconds"`
	// BaselineMeanQoE / BaselineP5QoE are the recorded per-video QoE
	// statistics of the protocol version the suite was created with
	// (chunk-indexed replay).
	BaselineMeanQoE float64 `json:"baseline_mean_qoe"`
	BaselineP5QoE   float64 `json:"baseline_p5_qoe"`
}

// NewABRRegressionSuite records a baseline: it evaluates the protocol on the
// traces and stores the statistics. workers > 1 parallelizes the evaluation
// (see EvaluateABRChunked); the recorded baseline is identical for any
// worker count. Errors on an empty dataset or a non-cloneable protocol with
// workers > 1.
func NewABRRegressionSuite(video *abr.Video, p abr.Protocol, traces *trace.Dataset, rttS float64, workers int) (*ABRRegressionSuite, error) {
	q, err := EvaluateABRChunked(video, traces, p, rttS, workers)
	if err != nil {
		return nil, err
	}
	return &ABRRegressionSuite{
		ProtocolName:    p.Name(),
		Traces:          traces,
		RTTSeconds:      rttS,
		BaselineMeanQoE: stats.Mean(q),
		BaselineP5QoE:   stats.Percentile(q, 5),
	}, nil
}

// RegressionResult reports one check.
type RegressionResult struct {
	MeanQoE   float64
	P5QoE     float64
	MeanDelta float64 // current − baseline
	P5Delta   float64
	Passed    bool
}

// Check evaluates the (possibly modified) protocol against the recorded
// traces and fails if its mean QoE fell more than tolerance below the
// baseline. It returns the measurements either way. workers > 1
// parallelizes the evaluation without changing the measurements.
func (s *ABRRegressionSuite) Check(video *abr.Video, p abr.Protocol, tolerance float64, workers int) (RegressionResult, error) {
	q, err := EvaluateABRChunked(video, s.Traces, p, s.RTTSeconds, workers)
	if err != nil {
		return RegressionResult{}, err
	}
	res := RegressionResult{
		MeanQoE: stats.Mean(q),
		P5QoE:   stats.Percentile(q, 5),
	}
	res.MeanDelta = res.MeanQoE - s.BaselineMeanQoE
	res.P5Delta = res.P5QoE - s.BaselineP5QoE
	res.Passed = res.MeanDelta >= -tolerance
	return res, nil
}

// Save writes the suite to path as an "abr-regression-suite" envelope.
func (s *ABRRegressionSuite) Save(path string) error {
	return rl.WriteEnvelope(path, abrRegressionSuiteKind, s)
}

// LoadABRRegressionSuite reads a suite previously written by Save.
func LoadABRRegressionSuite(path string) (*ABRRegressionSuite, error) {
	var s ABRRegressionSuite
	if err := loadModel(path, abrRegressionSuiteKind, &s); err != nil {
		return nil, err
	}
	if s.Traces == nil || len(s.Traces.Traces) == 0 {
		return nil, fmt.Errorf("core: regression suite has no traces")
	}
	return &s, nil
}

// CCRegressionSuite is the congestion-control analogue: it holds a trained
// adversary and the target's baseline utilization when the adversary runs
// online against it. Persist the adversary itself with CCAdversary.Save and
// rebuild the suite from it; the baseline re-derives deterministically from
// the seed.
type CCRegressionSuite struct {
	ProtocolName string
	Adversary    *CCAdversary
	Episodes     int
	BaselineUtil float64
	Seed         uint64
}

// NewCCRegressionSuite records a baseline by running the adversary online
// against the protocol for the given number of episodes. workers > 1 runs
// that many episodes concurrently (each episode seeds its own RNG from
// Seed+episode, so the baseline is identical for any worker count); newCC
// must then be safe to call from multiple goroutines.
func NewCCRegressionSuite(name string, adv *CCAdversary, newCC func() netem.CongestionController, episodes int, seed uint64, workers int) (*CCRegressionSuite, error) {
	s := &CCRegressionSuite{ProtocolName: name, Adversary: adv, Episodes: episodes, Seed: seed}
	util, err := s.measure(newCC, workers)
	if err != nil {
		return nil, err
	}
	s.BaselineUtil = util
	return s, nil
}

// measure runs the suite's episodes, worker w playing episodes w, w+W, …
// with its own policy clone; a panicking controller surfaces as a
// *par.PanicError naming the worker.
func (s *CCRegressionSuite) measure(newCC func() netem.CongestionController, workers int) (float64, error) {
	if s.Episodes <= 0 {
		return 0, fmt.Errorf("core: CC regression suite has no episodes")
	}
	workers = min(max(workers, 1), s.Episodes)
	advs := make([]*CCAdversary, workers)
	advs[0] = s.Adversary
	for w := 1; w < workers; w++ {
		clone, err := rl.ClonePolicy(s.Adversary.Policy)
		if err != nil {
			return 0, fmt.Errorf("core: parallel CC regression: %w", err)
		}
		advs[w] = &CCAdversary{Policy: clone.(*rl.GaussianPolicy), Cfg: s.Adversary.Cfg}
	}
	// Per-episode utilizations indexed by episode so the final fold is in
	// episode order regardless of which worker ran which episode.
	utils := make([]float64, s.Episodes)
	if err := par.Run(workers, func(w int) error {
		for ep := w; ep < s.Episodes; ep += workers {
			records := advs[w].RunEpisode(newCC, mathx.NewRNG(s.Seed+uint64(ep)), true)
			skip := len(records) / 3
			var u float64
			for _, r := range records[skip:] {
				u += r.Utilization
			}
			utils[ep] = u / float64(len(records)-skip)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return mathx.Sum(utils) / float64(s.Episodes), nil
}

// Check re-runs the adversary against the (possibly modified) protocol. It
// passes when the protocol's utilization under attack did not fall more than
// tolerance below the baseline — i.e., a previously-fixed weakness has not
// regressed. workers follows NewCCRegressionSuite.
func (s *CCRegressionSuite) Check(newCC func() netem.CongestionController, tolerance float64, workers int) (util float64, passed bool, err error) {
	util, err = s.measure(newCC, workers)
	if err != nil {
		return 0, false, err
	}
	return util, util >= s.BaselineUtil-tolerance, nil
}
