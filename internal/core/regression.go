package core

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/rl"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

// The paper's Discussion (§5, "Guiding protocol development") envisions
// continuous integration in which "using an adversary to create inputs that
// cause the exact problem in question, instead of running a fixed set of
// traces that caused problems in an earlier version of the code, would help
// developers create a more robust fix." This file implements that harness:
// an ABRRegressionSuite records a protocol's QoE on adversarial traces, and
// Check fails when a later version of the protocol regresses beyond a
// tolerance.

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
