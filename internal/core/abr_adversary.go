// Package core implements the paper's contribution: an RL-driven adversarial
// framework that learns network conditions under which a target protocol
// performs far from optimally (Eq. 1: r_adversary = r_opt − r_protocol −
// p_smoothing), for both adaptive video streaming (§3) and Internet
// congestion control (§4), together with the robust-training pipeline that
// feeds the generated adversarial traces back into the training of RL-based
// protocols (§2.3).
package core

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// ABRAdversaryConfig parameterizes the video-streaming adversary of §3.
type ABRAdversaryConfig struct {
	// Action space: per-chunk bandwidth (the paper's 0.8–4.8 Mbps).
	BandwidthLo float64
	BandwidthHi float64
	// HistoryLen is the number of past observations in the adversary
	// state (the paper uses 10).
	HistoryLen int
	// Window is the trailing window over which r_opt and r_protocol are
	// computed (the paper uses the last 4 network changes).
	Window int
	// SmoothWeight scales p_smoothing = |bw_t − bw_{t−1}|.
	SmoothWeight float64
	// RTTSeconds is the chunk-request round trip of the simulated client.
	RTTSeconds float64
	// Hidden are the adversary network's hidden layer sizes (the paper:
	// two layers of 32 and 16 neurons).
	Hidden []int
	// InitLogStd is the initial exploration scale of the Gaussian policy.
	InitLogStd float64
	// Goal selects the adversary's objective: the default ABRGoalRegret is
	// Eq. 1, and ABRGoalNaive is the §2.1 ablation that zeroes its Opt term.
	Goal ABRGoal
}

// DefaultABRAdversaryConfig returns the paper's §3 settings.
func DefaultABRAdversaryConfig() ABRAdversaryConfig {
	return ABRAdversaryConfig{
		BandwidthLo:  0.8,
		BandwidthHi:  4.8,
		HistoryLen:   10,
		Window:       4,
		SmoothWeight: 1.0,
		RTTSeconds:   0.08,
		Hidden:       []int{32, 16},
		InitLogStd:   -0.5,
	}
}

// perStepFeatures is the size of one observation in the adversary state:
// the protocol's last bitrate, the client buffer, the next chunk's per-level
// sizes, chunks remaining, and the last chunk's throughput and download time
// (§3's observation list), plus the adversary's own last bandwidth choice.
func (c ABRAdversaryConfig) perStepFeatures(levels int) int {
	return 1 + 1 + levels + 1 + 2 + 1
}

// stateSize returns the adversary input dimension.
func (c ABRAdversaryConfig) stateSize(levels int) int {
	return c.HistoryLen * c.perStepFeatures(levels)
}

// ABREnv is the online-adversary environment: one episode streams one video;
// each step the adversary fixes the link bandwidth for the next chunk, the
// target protocol reacts, and the adversary is rewarded by how far the
// protocol's QoE falls below the window-optimal QoE, minus the smoothing
// penalty.
type ABREnv struct {
	cfg    ABRAdversaryConfig
	video  *abr.Video
	target abr.Protocol
	ses    *abr.SessionConfig

	session *abr.Session
	link    *abr.ConstantLink
	obs     abr.Observation // the target's view of the session, refilled per chunk
	history []float64       // flattened rolling observation window: the observation Reset and Step return

	bwHist     []float64 // chosen bandwidth per chunk
	bufBefore  []float64 // buffer at each chunk's start
	prevBefore []int     // protocol's previous level at each chunk's start
	lastRaw    []float64 // last raw (unclipped) action, for Figure-6 style dumps
	last       Eq1       // the last step's reward terms
}

// NewABREnv builds an adversary environment against the given target.
func NewABREnv(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig) *ABREnv {
	ses := abr.DefaultSessionConfig()
	return &ABREnv{cfg: cfg, video: video, target: target, ses: &ses, history: make([]float64, cfg.stateSize(video.Levels()))}
}

// MapAction converts a raw policy action (nominally in [−1, 1], possibly
// outside due to exploration — "exploration and clipping done by PPO will
// return the actions to the acceptable range") into a bandwidth in Mbps.
func (e *ABREnv) MapAction(raw float64) float64 {
	x := mathx.Clamp(raw, -1, 1)
	return e.cfg.BandwidthLo + (e.cfg.BandwidthHi-e.cfg.BandwidthLo)*(x+1)/2
}

// Reset implements rl.Env.
func (e *ABREnv) Reset() []float64 {
	e.link = &abr.ConstantLink{BandwidthMbps: e.cfg.BandwidthLo, RTTSeconds: e.cfg.RTTSeconds}
	e.session = abr.NewSession(e.video, e.link, *e.ses)
	e.target.Reset()
	clear(e.history)
	e.bwHist = e.bwHist[:0]
	e.bufBefore = e.bufBefore[:0]
	e.prevBefore = e.prevBefore[:0]
	return e.history
}

// Step implements rl.Env.
func (e *ABREnv) Step(action []float64) ([]float64, float64, bool) {
	e.lastRaw = append(e.lastRaw[:0], action...)
	bw := e.MapAction(action[0])
	e.link.BandwidthMbps = bw

	e.session.ObservationInto(&e.obs)
	level := e.target.SelectLevel(&e.obs)
	e.bufBefore = append(e.bufBefore, e.session.Buffer())
	e.prevBefore = append(e.prevBefore, e.session.LastLevel())
	res := e.session.Step(level)
	e.bwHist = append(e.bwHist, bw)

	e.last = e.reward()
	e.pushObservation(res, bw)
	return e.history, e.last.Value(), e.session.Done()
}

// reward splits Eq. 1 over the trailing window: Opt is the window optimum
// (zeroed under ABRGoalNaive), Protocol the target's QoE over the same
// chunks, and Smooth the weighted change of bandwidth.
func (e *ABREnv) reward() Eq1 {
	t := len(e.bwHist) - 1
	w := e.cfg.Window
	start := t - w + 1
	if start < 0 {
		start = 0
	}
	smooth := 0.0
	if t > 0 {
		smooth = e.bwHist[t] - e.bwHist[t-1]
		if smooth < 0 {
			smooth = -smooth
		}
	}
	r := Eq1{Smooth: e.cfg.SmoothWeight * smooth}
	if e.cfg.Goal != ABRGoalNaive {
		r.Opt = abr.WindowOptimal(
			e.video, e.ses.QoE, start,
			e.bwHist[start:t+1], e.cfg.RTTSeconds,
			e.bufBefore[start], e.ses.BufferCapS, e.prevBefore[start],
		)
	}
	for _, res := range e.session.Results()[start : t+1] {
		r.Protocol += res.QoE
	}
	return r
}

// pushObservation drops the oldest per-step features and writes the newest
// into the tail of the window, in place.
func (e *ABREnv) pushObservation(res abr.StepResult, bw float64) {
	levels := e.video.Levels()
	maxMbps := e.video.BitrateMbps(levels - 1)
	per := e.cfg.perStepFeatures(levels)

	copy(e.history, e.history[per:])
	feat := e.history[len(e.history)-per:]
	feat[0] = res.BitrateMbps / maxMbps
	feat[1] = res.BufferS / 10
	sizes := feat[2 : 2+levels]
	if !e.session.Done() {
		next := e.session.NextChunk()
		for l := range sizes {
			sizes[l] = e.video.Size(l, next) / 1e6 / 5
		}
	} else {
		clear(sizes)
	}
	rest := feat[2+levels:]
	rest[0] = float64(e.video.NumChunks()-e.session.NextChunk()) / float64(e.video.NumChunks())
	rest[1] = res.ThroughputMbps / 5
	rest[2] = res.DownloadS / 10
	rest[3] = bw / e.cfg.BandwidthHi
}

// ObservationSize implements rl.Env.
func (e *ABREnv) ObservationSize() int { return e.cfg.stateSize(e.video.Levels()) }

// ActionSpec implements rl.Env.
func (e *ABREnv) ActionSpec() rl.ActionSpec {
	return rl.ActionSpec{Dim: 1, Low: []float64{-1}, High: []float64{1}}
}

// BandwidthHistory returns the bandwidths chosen so far this episode.
func (e *ABREnv) BandwidthHistory() []float64 { return e.bwHist }

// ABRAdversary is a trained video-streaming adversary.
type ABRAdversary struct {
	Policy *rl.GaussianPolicy `json:"policy"`
	Cfg    ABRAdversaryConfig `json:"cfg"`
}

// NewABRAdversary builds an untrained adversary for the given video ladder.
func NewABRAdversary(rng *mathx.RNG, levels int, cfg ABRAdversaryConfig) *ABRAdversary {
	net := nn.NewMLP(rng, mlpSizes(cfg.stateSize(levels), cfg.Hidden, 1), nn.Tanh)
	return &ABRAdversary{Policy: rl.NewGaussianPolicy(net, cfg.InitLogStd), Cfg: cfg}
}

// mlpSizes returns the layer sizes of an MLP with the given hidden layers.
func mlpSizes(in int, hidden []int, out int) []int {
	return append(append([]int{in}, hidden...), out)
}

// TrainOptions controls the training of every adversary in this package (and
// of the adversary inside TrainRobustPensieve): it is the rl seam's one
// options struct, and every trainer honours every field.
type TrainOptions = rl.TrainOptions

// DefaultABRTrainOptions returns settings sized for the repository's
// experiments (the paper trains for 600k steps; the defaults here train for
// Iterations×RolloutSteps steps and can be scaled up).
func DefaultABRTrainOptions() TrainOptions {
	return TrainOptions{Iterations: 80, RolloutSteps: 1536, LR: 1e-3}
}

// TrainABRAdversary trains a fresh adversary against the target protocol on
// the given video and returns it with the per-iteration statistics. ABREnv
// does not checkpoint its own state, so a resumed run abandons any
// half-collected episode.
func TrainABRAdversary(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, opt TrainOptions, rng *mathx.RNG) (*ABRAdversary, []rl.IterStats, error) {
	levels := video.Levels()
	ppo, stats, err := rl.Train(rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return NewABRAdversary(rng, levels, cfg).Policy, nn.NewMLP(rng, mlpSizes(cfg.stateSize(levels), cfg.Hidden, 1), nn.Tanh)
		},
		Config: rl.DefaultPPOConfig(),
		Envs: func(lanes int, _ *mathx.RNG) (rl.EnvFactory, error) {
			return ABREnvFactory(video, target, cfg, lanes)
		},
	}, opt, rng)
	if err != nil {
		return nil, nil, err
	}
	return &ABRAdversary{Policy: ppo.Policy.(*rl.GaussianPolicy), Cfg: cfg}, stats, nil
}

// cloneTargets returns one protocol instance per rollout lane or evaluation
// worker: lane 0 drives the original target, higher lanes drive clones
// (protocols carry per-session state and evaluation scratch, so instances
// must not be shared across goroutines). The target must implement
// abr.CloneableProtocol when lanes > 1.
func cloneTargets(target abr.Protocol, lanes int) ([]abr.Protocol, error) {
	targets := []abr.Protocol{target}
	for i := 1; i < lanes; i++ {
		c, err := abr.CloneProtocol(target)
		if err != nil {
			return nil, err
		}
		targets = append(targets, c)
	}
	return targets, nil
}

// ABREnvFactory returns an rl.EnvFactory producing one independent adversary
// environment per rollout lane, each over its own protocol instance (see
// cloneTargets). ABREnv streams no trace dataset — the adversary emits the
// bandwidths itself — so DESIGN.md §8.3's rule for a lane's traces has
// nothing to split here.
func ABREnvFactory(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, lanes int) (rl.EnvFactory, error) {
	targets, err := cloneTargets(target, lanes)
	if err != nil {
		return nil, err
	}
	return func(lane int) rl.Env {
		return NewABREnv(video, targets[lane], cfg)
	}, nil
}

// GenerateTrace runs the adversary online against the target for one episode
// and returns the emitted bandwidth sequence as a replayable trace (§2.1:
// "traces from these adversaries are sufficient to reproduce flawed
// performance ... without having to re-run the adversary"). With stochastic
// false the policy acts deterministically (its mode).
func (a *ABRAdversary) GenerateTrace(video *abr.Video, target abr.Protocol, rng *mathx.RNG, stochastic bool, name string) *trace.Trace {
	env := NewABREnv(video, target, a.Cfg)
	rl.RunEpisode(a.Policy, env, rng, stochastic, nil)
	tr := &trace.Trace{Name: name}
	for _, bw := range env.BandwidthHistory() {
		tr.Points = append(tr.Points, trace.Point{Duration: video.ChunkSeconds, BandwidthMbps: bw, LatencyMs: a.Cfg.RTTSeconds * 1000 / 2})
	}
	return tr
}

// GenerateTraces produces a dataset of n adversarial traces (stochastic
// episodes, so the traces differ).
func (a *ABRAdversary) GenerateTraces(video *abr.Video, target abr.Protocol, rng *mathx.RNG, n int, name string) *trace.Dataset {
	d := &trace.Dataset{Name: name}
	for i := 0; i < n; i++ {
		d.Traces = append(d.Traces,
			a.GenerateTrace(video, target, rng, true, fmt.Sprintf("%s-%03d", name, i)))
	}
	return d
}
