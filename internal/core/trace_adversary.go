package core

import (
	"fmt"
	"math"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// This file implements the *trace-based* adversary of §2.1: instead of
// reacting to the protocol online, it "generates an entire trace ... as a
// single output, and is evaluated by running the target protocol on that
// trace". The paper notes its trade-offs — trivially reproducible output,
// but far slower training because each whole trace is a single data point —
// and chooses online adversaries for the evaluation; we implement both so
// the trade-off is measurable (see AblationOnlineVsTraceBased).

// TraceAdversaryConfig parameterizes the trace-based video adversary.
type TraceAdversaryConfig struct {
	BandwidthLo  float64
	BandwidthHi  float64
	SmoothWeight float64
	RTTSeconds   float64
	// InitLogStd is the exploration scale over the per-chunk bandwidths.
	InitLogStd float64
}

// DefaultTraceAdversaryConfig mirrors the online adversary's action space.
func DefaultTraceAdversaryConfig() TraceAdversaryConfig {
	return TraceAdversaryConfig{
		BandwidthLo:  0.8,
		BandwidthHi:  4.8,
		SmoothWeight: 1.0,
		RTTSeconds:   0.08,
		InitLogStd:   -0.5,
	}
}

// TraceAdversary emits a whole bandwidth trace in one shot. The policy is a
// state-independent diagonal Gaussian over the per-chunk bandwidths (the
// observation is a constant, so the "network" degenerates to a learned mean
// vector — the natural parameterization of a distribution over traces).
type TraceAdversary struct {
	Policy *rl.GaussianPolicy
	Cfg    TraceAdversaryConfig
	Chunks int
}

// NewTraceAdversary builds an untrained trace-based adversary for videos
// with the given number of chunks.
func NewTraceAdversary(rng *mathx.RNG, chunks int, cfg TraceAdversaryConfig) *TraceAdversary {
	// A single linear layer from a constant input: the bias vector *is*
	// the trace mean.
	net := nn.NewMLP(rng, []int{1, chunks}, nn.Identity)
	return &TraceAdversary{
		Policy: rl.NewGaussianPolicy(net, cfg.InitLogStd),
		Cfg:    cfg,
		Chunks: chunks,
	}
}

// mapBandwidth converts one raw action coordinate to Mbps.
func (c TraceAdversaryConfig) mapBandwidth(raw float64) float64 {
	x := mathx.Clamp(raw, -1, 1)
	return c.BandwidthLo + (c.BandwidthHi-c.BandwidthLo)*(x+1)/2
}

// traceEnv is the one-step episode: the action is the whole trace; the
// reward is total regret minus total smoothing penalty.
type traceEnv struct {
	cfg    TraceAdversaryConfig
	chunks int
	video  *abr.Video
	target abr.Protocol
	last   Eq1 // the last step's reward terms
}

// traceObs is every traceEnv's constant observation; no one writes it.
var traceObs = []float64{1}

func (e *traceEnv) Reset() []float64 { return traceObs }

func (e *traceEnv) Step(action []float64) ([]float64, float64, bool) {
	bw := make([]float64, e.chunks)
	for i := range bw {
		bw[i] = e.cfg.mapBandwidth(action[i])
	}
	// Run the target over the trace (chunk-indexed semantics).
	link := &abr.ChunkLink{Bandwidths: bw, RTTSeconds: e.cfg.RTTSeconds}
	session := abr.RunSession(e.video, link, abr.DefaultSessionConfig(), e.target)

	oracle := abr.NewOfflineOptimal()
	oracle.RTTSeconds = e.cfg.RTTSeconds
	_, optQoE := oracle.Solve(e.video, bw)

	smooth := 0.0
	for i := 1; i < len(bw); i++ {
		smooth += math.Abs(bw[i] - bw[i-1])
	}
	e.last = Eq1{Opt: optQoE, Protocol: session.TotalQoE(), Smooth: e.cfg.SmoothWeight * smooth}
	return traceObs, e.last.Value(), true
}

func (e *traceEnv) ObservationSize() int { return 1 }

func (e *traceEnv) ActionSpec() rl.ActionSpec {
	low := make([]float64, e.chunks)
	high := make([]float64, e.chunks)
	for i := range low {
		low[i], high[i] = -1, 1
	}
	return rl.ActionSpec{Dim: e.chunks, Low: low, High: high}
}

// DefaultTraceTrainOptions returns defaults; RolloutSteps counts whole traces
// evaluated per iteration, and each costs a full video simulation plus an
// offline-optimal solve, which is why §2.1 calls this approach slow — and
// why it parallelizes well over opt.Workers.
func DefaultTraceTrainOptions() TrainOptions {
	return TrainOptions{Iterations: 40, RolloutSteps: 64, LR: 3e-3}
}

// TrainTraceAdversary trains a trace-based adversary against the target and
// returns it with the training statistics. Each lane beyond the first drives
// its own clone of the target.
func TrainTraceAdversary(video *abr.Video, target abr.Protocol, cfg TraceAdversaryConfig, opt TrainOptions, rng *mathx.RNG) (*TraceAdversary, []rl.IterStats, error) {
	chunks := video.NumChunks()
	pcfg := rl.DefaultPPOConfig()
	pcfg.MinibatchSize = 16 // a rollout is tens of whole traces, not thousands of steps
	ppo, stats, err := rl.Train(rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return NewTraceAdversary(rng, chunks, cfg).Policy, nn.NewMLP(rng, []int{1, 4, 1}, nn.Tanh)
		},
		Config: pcfg,
		Envs: func(lanes int, _ *mathx.RNG) (rl.EnvFactory, error) {
			targets, err := cloneTargets(target, lanes)
			if err != nil {
				return nil, err
			}
			return func(lane int) rl.Env {
				return &traceEnv{cfg: cfg, chunks: chunks, video: video, target: targets[lane]}
			}, nil
		},
	}, opt, rng)
	if err != nil {
		return nil, nil, err
	}
	return &TraceAdversary{Policy: ppo.Policy.(*rl.GaussianPolicy), Cfg: cfg, Chunks: chunks}, stats, nil
}

// GenerateTrace samples one trace (stochastic) or emits the mean trace
// (deterministic).
func (a *TraceAdversary) GenerateTrace(rng *mathx.RNG, stochastic bool, name string) *trace.Trace {
	var action []float64
	if stochastic {
		action, _ = a.Policy.Sample(rng, traceObs)
	} else {
		action = a.Policy.Mode(traceObs)
	}
	tr := &trace.Trace{Name: name}
	for i := 0; i < a.Chunks; i++ {
		tr.Points = append(tr.Points, trace.Point{
			Duration:      4,
			BandwidthMbps: a.Cfg.mapBandwidth(action[i]),
			LatencyMs:     a.Cfg.RTTSeconds * 1000 / 2,
		})
	}
	return tr
}

// GenerateTraces samples n traces.
func (a *TraceAdversary) GenerateTraces(rng *mathx.RNG, n int, name string) *trace.Dataset {
	d := &trace.Dataset{Name: name}
	for i := 0; i < n; i++ {
		d.Traces = append(d.Traces, a.GenerateTrace(rng, true, fmt.Sprintf("%s-%03d", name, i)))
	}
	return d
}
