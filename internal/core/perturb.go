package core

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// The paper's Discussion (§5, "Constraining Adversaries") suggests
// "constraining adversaries relative to a particular set of traces, e.g., to
// making only small changes to an existing test case". PerturbEnv implements
// that: the adversary's action is a bounded per-chunk *deviation* from a
// base trace rather than an absolute bandwidth, so the generated conditions
// stay within MaxDeviation of something already known to be realistic.

// PerturbConfig parameterizes the constrained video adversary.
type PerturbConfig struct {
	// MaxDeviationMbps bounds |bw_adv − bw_base| per chunk.
	MaxDeviationMbps float64
	// Floor keeps the perturbed bandwidth at or above this value.
	Floor float64
	// Window / SmoothWeight / RTTSeconds / HistoryLen / Hidden /
	// InitLogStd carry the same meaning as in ABRAdversaryConfig.
	Window       int
	SmoothWeight float64
	RTTSeconds   float64
	HistoryLen   int
	Hidden       []int
	InitLogStd   float64
}

// DefaultPerturbConfig allows ±1 Mbps of deviation.
func DefaultPerturbConfig() PerturbConfig {
	return PerturbConfig{
		MaxDeviationMbps: 1.0,
		Floor:            0.2,
		Window:           4,
		SmoothWeight:     1.0,
		RTTSeconds:       0.08,
		HistoryLen:       10,
		Hidden:           []int{32, 16},
		InitLogStd:       -0.5,
	}
}

// PerturbEnv is an rl.Env in which each action perturbs the base trace's
// bandwidth for the next chunk. It reuses ABREnv's observation and Eq.-1
// reward machinery by composing an inner environment whose action mapping is
// replaced.
type PerturbEnv struct {
	inner *ABREnv
	cfg   PerturbConfig
	base  *trace.Trace
}

// NewPerturbEnv builds a constrained adversary environment around a base
// trace (which must have at least one point; it is indexed per chunk,
// cyclically).
func NewPerturbEnv(video *abr.Video, target abr.Protocol, base *trace.Trace, cfg PerturbConfig) *PerturbEnv {
	if len(base.Points) == 0 {
		panic("core: PerturbEnv with empty base trace")
	}
	icfg := DefaultABRAdversaryConfig()
	icfg.Window = cfg.Window
	icfg.SmoothWeight = cfg.SmoothWeight
	icfg.RTTSeconds = cfg.RTTSeconds
	icfg.HistoryLen = cfg.HistoryLen
	icfg.Hidden = cfg.Hidden
	icfg.InitLogStd = cfg.InitLogStd
	return &PerturbEnv{inner: NewABREnv(video, target, icfg), cfg: cfg, base: base}
}

// baseBandwidth returns the base trace's bandwidth for a chunk index.
func (e *PerturbEnv) baseBandwidth(chunk int) float64 {
	return e.base.Points[chunk%len(e.base.Points)].BandwidthMbps
}

// MapAction converts a raw action into a bandwidth within ±MaxDeviation of
// the base trace at the given chunk.
func (e *PerturbEnv) MapAction(raw float64, chunk int) float64 {
	dev := mathx.Clamp(raw, -1, 1) * e.cfg.MaxDeviationMbps
	bw := e.baseBandwidth(chunk) + dev
	if bw < e.cfg.Floor {
		bw = e.cfg.Floor
	}
	return bw
}

// Reset implements rl.Env.
func (e *PerturbEnv) Reset() []float64 { return e.inner.Reset() }

// Step implements rl.Env.
func (e *PerturbEnv) Step(action []float64) ([]float64, float64, bool) {
	chunk := e.inner.Session().NextChunk()
	return e.inner.StepBandwidth(e.MapAction(action[0], chunk))
}

// ObservationSize implements rl.Env.
func (e *PerturbEnv) ObservationSize() int { return e.inner.ObservationSize() }

// ActionSpec implements rl.Env.
func (e *PerturbEnv) ActionSpec() rl.ActionSpec { return e.inner.ActionSpec() }

// BandwidthHistory returns the perturbed bandwidths chosen this episode.
func (e *PerturbEnv) BandwidthHistory() []float64 { return e.inner.BandwidthHistory() }

// MaxObservedDeviation returns the largest |bw − base| over the episode, for
// verifying the constraint held.
func (e *PerturbEnv) MaxObservedDeviation() float64 {
	var m float64
	for i, bw := range e.inner.BandwidthHistory() {
		d := bw - e.baseBandwidth(i)
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// PerturbAdversary is a trained constrained adversary.
type PerturbAdversary struct {
	Policy *rl.GaussianPolicy
	Cfg    PerturbConfig
}

// TrainPerturbAdversary trains a constrained adversary against target on the
// base trace. Each lane beyond the first drives its own clone of the target.
func TrainPerturbAdversary(video *abr.Video, target abr.Protocol, base *trace.Trace, cfg PerturbConfig, opt TrainOptions, rng *mathx.RNG) (*PerturbAdversary, []rl.IterStats, error) {
	icfg := DefaultABRAdversaryConfig()
	icfg.HistoryLen = cfg.HistoryLen
	sizes := mlpSizes(icfg.stateSize(video.Levels()), cfg.Hidden, 1)
	ppo, stats, err := rl.Train(rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return rl.NewGaussianPolicy(nn.NewMLP(rng, sizes, nn.Tanh), cfg.InitLogStd), nn.NewMLP(rng, sizes, nn.Tanh)
		},
		Config: rl.DefaultPPOConfig(),
		Envs: func(lanes int, _ *mathx.RNG) (rl.EnvFactory, error) {
			targets, err := cloneTargets(target, lanes)
			if err != nil {
				return nil, err
			}
			return func(lane int) rl.Env { return NewPerturbEnv(video, targets[lane], base, cfg) }, nil
		},
	}, opt, rng)
	if err != nil {
		return nil, nil, err
	}
	return &PerturbAdversary{Policy: ppo.Policy.(*rl.GaussianPolicy), Cfg: cfg}, stats, nil
}

// GenerateTrace runs the constrained adversary for one episode against the
// target and returns the perturbed trace.
func (a *PerturbAdversary) GenerateTrace(video *abr.Video, target abr.Protocol, base *trace.Trace, rng *mathx.RNG, stochastic bool, name string) *trace.Trace {
	return episodeTrace(a.Policy, NewPerturbEnv(video, target, base, a.Cfg), rng, stochastic, name, video.ChunkSeconds, a.Cfg.RTTSeconds)
}

// Validate reports whether perturbed stays within the configured deviation
// of base (chunk-indexed), returning an error at the first offending index.
// The floor may legitimately pull a perturbed value above the bound when the
// base dips below Floor, which is accounted for.
func (c PerturbConfig) Validate(base, perturbed *trace.Trace) error {
	for i, p := range perturbed.Points {
		b := base.Points[i%len(base.Points)].BandwidthMbps
		lo := b - c.MaxDeviationMbps
		if lo < c.Floor {
			lo = c.Floor
		}
		hi := b + c.MaxDeviationMbps
		if hi < c.Floor {
			hi = c.Floor
		}
		if p.BandwidthMbps < lo-1e-9 || p.BandwidthMbps > hi+1e-9 {
			return fmt.Errorf("core: point %d at %v Mbps outside [%v, %v]", i, p.BandwidthMbps, lo, hi)
		}
	}
	return nil
}
