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
	"math"

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
	// NaiveReward drops the r_opt term from Eq. 1, rewarding −r_protocol −
	// p_smoothing alone. §2.1 argues this degenerates into trivially
	// hostile traces; the AblationOptBaseline experiment measures it.
	NaiveReward bool
	// Goal selects the adversary's objective (§5 "Different adversarial
	// goals"); the default ABRGoalRegret is Eq. 1.
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
	history []float64 // flattened rolling observation window

	bwHist     []float64 // chosen bandwidth per chunk
	bufBefore  []float64 // buffer at each chunk's start
	prevBefore []int     // protocol's previous level at each chunk's start
	lastRaw    []float64 // last raw (unclipped) action, for Figure-6 style dumps
}

// NewABREnv builds an adversary environment against the given target.
func NewABREnv(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig) *ABREnv {
	ses := abr.DefaultSessionConfig()
	return &ABREnv{cfg: cfg, video: video, target: target, ses: &ses}
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
	e.history = make([]float64, e.cfg.stateSize(e.video.Levels()))
	e.bwHist = e.bwHist[:0]
	e.bufBefore = e.bufBefore[:0]
	e.prevBefore = e.prevBefore[:0]
	return mathx.CopyOf(e.history)
}

// Step implements rl.Env.
func (e *ABREnv) Step(action []float64) ([]float64, float64, bool) {
	e.lastRaw = mathx.CopyOf(action)
	return e.StepBandwidth(e.MapAction(action[0]))
}

// StepBandwidth advances one chunk with an explicit bandwidth in Mbps,
// bypassing the action mapping (used by constrained adversaries that derive
// the bandwidth differently).
func (e *ABREnv) StepBandwidth(bw float64) ([]float64, float64, bool) {
	e.link.BandwidthMbps = bw

	obs := e.session.Observation()
	level := e.target.SelectLevel(obs)
	e.bufBefore = append(e.bufBefore, e.session.Buffer())
	e.prevBefore = append(e.prevBefore, e.session.LastLevel())
	res := e.session.Step(level)
	e.bwHist = append(e.bwHist, bw)

	reward := e.reward()
	e.pushObservation(res, bw)
	done := e.session.Done()
	return mathx.CopyOf(e.history), reward, done
}

// reward computes the configured objective over the trailing window; the
// default is Eq. 1.
func (e *ABREnv) reward() float64 {
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
	results := e.session.Results()
	window := results[start : t+1]

	switch e.cfg.Goal {
	case ABRGoalRebuffering:
		// Stall seconds caused over the window. Non-trivial by
		// construction: sustained starvation makes every protocol drop
		// to the lowest level and stop stalling, so rebuffering demands
		// bait-and-starve patterns.
		var rebuf float64
		for _, r := range window {
			rebuf += r.RebufferS
		}
		return rebuf - e.cfg.SmoothWeight*smooth

	case ABRGoalLowBitrate:
		// Offered bandwidth minus played bitrate (Mbps): rewards making
		// the protocol play far below what the network supports.
		var bw, bitrate float64
		for i, r := range window {
			bw += e.bwHist[start+i]
			bitrate += r.BitrateMbps
		}
		n := float64(len(window))
		return (bw-bitrate)/n - e.cfg.SmoothWeight*smooth
	}

	rOpt := 0.0
	if !e.cfg.NaiveReward {
		rOpt = abr.WindowOptimal(
			e.video, e.ses.QoE, start,
			e.bwHist[start:t+1], e.cfg.RTTSeconds,
			e.bufBefore[start], e.ses.BufferCapS, e.prevBefore[start],
		)
	}
	var rProto float64
	for _, r := range window {
		rProto += r.QoE
	}
	return rOpt - rProto - e.cfg.SmoothWeight*smooth
}

// pushObservation appends the newest per-step features and drops the oldest.
func (e *ABREnv) pushObservation(res abr.StepResult, bw float64) {
	levels := e.video.Levels()
	maxMbps := e.video.BitrateMbps(levels - 1)
	per := e.cfg.perStepFeatures(levels)

	feat := make([]float64, 0, per)
	feat = append(feat, res.BitrateMbps/maxMbps)
	feat = append(feat, res.BufferS/10)
	if !e.session.Done() {
		for _, s := range e.video.ChunkSizes(e.session.NextChunk()) {
			feat = append(feat, s/1e6/5)
		}
	} else {
		for i := 0; i < levels; i++ {
			feat = append(feat, 0)
		}
	}
	feat = append(feat, float64(e.video.NumChunks()-e.session.NextChunk())/float64(e.video.NumChunks()))
	feat = append(feat, res.ThroughputMbps/5)
	feat = append(feat, res.DownloadS/10)
	feat = append(feat, bw/e.cfg.BandwidthHi)

	copy(e.history, e.history[per:])
	copy(e.history[len(e.history)-per:], feat)
}

// ObservationSize implements rl.Env.
func (e *ABREnv) ObservationSize() int { return e.cfg.stateSize(e.video.Levels()) }

// ActionSpec implements rl.Env.
func (e *ABREnv) ActionSpec() rl.ActionSpec {
	return rl.ActionSpec{Dim: 1, Low: []float64{-1}, High: []float64{1}}
}

// BandwidthHistory returns the bandwidths chosen so far this episode.
func (e *ABREnv) BandwidthHistory() []float64 { return e.bwHist }

// LastRawAction returns the most recent raw (unclipped) policy action — the
// quantity the paper plots in Figure 6, which "may appear to be outside of
// the parameter range" before PPO's clipping maps it back in.
func (e *ABREnv) LastRawAction() []float64 { return e.lastRaw }

// Session exposes the underlying streaming session (for analysis).
func (e *ABREnv) Session() *abr.Session { return e.session }

// ABRAdversary is a trained video-streaming adversary.
type ABRAdversary struct {
	Policy *rl.GaussianPolicy
	Cfg    ABRAdversaryConfig
}

// NewABRAdversary builds an untrained adversary for the given video ladder.
func NewABRAdversary(rng *mathx.RNG, levels int, cfg ABRAdversaryConfig) *ABRAdversary {
	sizes := append([]int{cfg.stateSize(levels)}, cfg.Hidden...)
	sizes = append(sizes, 1)
	net := nn.NewMLP(rng, sizes, nn.Tanh)
	return &ABRAdversary{Policy: rl.NewGaussianPolicy(net, cfg.InitLogStd), Cfg: cfg}
}

// ABRTrainOptions controls adversary training.
type ABRTrainOptions struct {
	Iterations   int // PPO iterations
	RolloutSteps int // env steps per iteration
	LR           float64
	// Restarts > 1 trains that many adversaries from independent
	// initializations and keeps the one with the highest final reward.
	// PPO on adversarial objectives is seed-sensitive (some runs converge
	// to weak local attacks); restart selection makes the generated
	// traces reliably strong.
	Restarts int
	// Workers is the number of parallel environment instances collecting
	// each rollout (rl.VecRunner lanes); RolloutSteps are split across
	// them, so the data volume per iteration is unchanged. Workers ≤ 1 is
	// one lane on the calling goroutine, bit-for-bit the historical
	// single-threaded behaviour.
	Workers int
	// GEMM routes PPO's minibatch updates through the blocked
	// matrix–matrix kernels (rl.PPOConfig.GEMM). Faster on large
	// rollouts; results match the default path to rounding rather than
	// bitwise.
	GEMM bool
	// Checkpoint enables crash-safe adversary training: periodic atomic
	// trainer checkpoints under Checkpoint.Dir with automatic resume (see
	// rl.CheckpointConfig). ABREnv does not checkpoint its own state, so a
	// resumed run abandons any half-collected episode — valid training,
	// though not bit-for-bit an uninterrupted run. Incompatible with
	// Restarts > 1 (one directory cannot hold several independent runs).
	Checkpoint rl.CheckpointConfig
	// Metrics, when non-nil, attaches training telemetry (iteration
	// counter, rollout/update timers) to the trainer. With Restarts > 1
	// every restart observes into the same instruments, so the timers
	// aggregate across the whole selection run.
	Metrics *rl.TrainMetrics
}

// DefaultABRTrainOptions returns settings sized for the repository's
// experiments (the paper trains for 600k steps; the defaults here train for
// Iterations×RolloutSteps steps and can be scaled up).
func DefaultABRTrainOptions() ABRTrainOptions {
	return ABRTrainOptions{Iterations: 80, RolloutSteps: 1536, LR: 1e-3}
}

// TrainABRAdversary trains a fresh adversary against the target protocol on
// the given video and returns it with the per-iteration statistics. With
// opt.Restarts > 1 it returns the best of several independent runs (judged
// by mean episode reward over the final quarter of training).
func TrainABRAdversary(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, opt ABRTrainOptions, rng *mathx.RNG) (*ABRAdversary, []rl.IterStats, error) {
	restarts := opt.Restarts
	if restarts > 1 && opt.Checkpoint.Dir != "" {
		return nil, nil, fmt.Errorf("core: Restarts=%d is incompatible with checkpointing (one directory cannot hold several independent runs)", restarts)
	}
	if restarts <= 1 {
		return trainABRAdversaryOnce(video, target, cfg, opt, rng)
	}
	var (
		bestAdv   *ABRAdversary
		bestStats []rl.IterStats
	)
	bestScore := math.Inf(-1)
	for i := 0; i < restarts; i++ {
		adv, stats, err := trainABRAdversaryOnce(video, target, cfg, opt, rng.Split())
		if err != nil {
			return nil, nil, err
		}
		score := finalReward(stats)
		if score > bestScore {
			bestScore = score
			bestAdv = adv
			bestStats = stats
		}
	}
	return bestAdv, bestStats, nil
}

// finalReward scores a training run by its tail performance.
func finalReward(stats []rl.IterStats) float64 {
	if len(stats) == 0 {
		return math.Inf(-1)
	}
	tail := stats[len(stats)*3/4:]
	var sum float64
	for _, s := range tail {
		sum += s.MeanEpReward
	}
	return sum / float64(len(tail))
}

func trainABRAdversaryOnce(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, opt ABRTrainOptions, rng *mathx.RNG) (*ABRAdversary, []rl.IterStats, error) {
	adv := NewABRAdversary(rng, video.Levels(), cfg)
	valueSizes := append([]int{cfg.stateSize(video.Levels())}, cfg.Hidden...)
	valueSizes = append(valueSizes, 1)
	value := nn.NewMLP(rng, valueSizes, nn.Tanh)

	pcfg := rl.DefaultPPOConfig()
	pcfg.RolloutSteps = opt.RolloutSteps
	pcfg.LR = opt.LR
	pcfg.GEMM = opt.GEMM
	ppo, err := rl.NewPPO(adv.Policy, value, pcfg, rng)
	if err != nil {
		return nil, nil, err
	}
	ppo.SetMetrics(opt.Metrics)
	workers := max(1, opt.Workers)
	factory, err := ABREnvFactory(video, target, cfg, workers)
	if err != nil {
		return nil, nil, err
	}
	v, err := rl.NewVecRunner(ppo, factory, workers)
	if err != nil {
		return nil, nil, err
	}
	stats, err := v.TrainCheckpointed(opt.Iterations, opt.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	return adv, stats, nil
}

// ABREnvFactory returns an rl.EnvFactory producing one independent adversary
// environment per rollout worker. Worker 0 drives the original target
// protocol; higher workers drive clones (protocols carry per-session state
// and evaluation scratch, so instances must not be shared across
// goroutines). The target must implement abr.CloneableProtocol when workers
// > 1. The worker index is the shard slot of the sharding contract (DESIGN.md
// §8.3), but ABREnv streams no trace dataset — the adversary emits the
// bandwidths itself — so there is nothing to shard here; dataset-backed
// factories (abr.TrainPensieveSharded, core.TrainRobustPensieve with
// ShardTraces) assign trace shard w to worker w under the same convention.
func ABREnvFactory(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, workers int) (rl.EnvFactory, error) {
	targets := []abr.Protocol{target}
	for i := 1; i < workers; i++ {
		c, err := abr.CloneProtocol(target)
		if err != nil {
			return nil, err
		}
		targets = append(targets, c)
	}
	return func(worker int) rl.Env {
		return NewABREnv(video, targets[worker], cfg)
	}, nil
}

// TrainABRAdversaryNaive trains an adversary with the naive −r_protocol
// reward (no optimum baseline), used by the reward-definition ablation.
func TrainABRAdversaryNaive(video *abr.Video, target abr.Protocol, cfg ABRAdversaryConfig, opt ABRTrainOptions, rng *mathx.RNG) (*ABRAdversary, []rl.IterStats, error) {
	cfg.NaiveReward = true
	return TrainABRAdversary(video, target, cfg, opt, rng)
}

// GenerateTrace runs the adversary online against the target for one episode
// and returns the emitted bandwidth sequence as a replayable trace (§2.1:
// "traces from these adversaries are sufficient to reproduce flawed
// performance ... without having to re-run the adversary"). With stochastic
// false the policy acts deterministically (its mode).
func (a *ABRAdversary) GenerateTrace(video *abr.Video, target abr.Protocol, rng *mathx.RNG, stochastic bool, name string) *trace.Trace {
	env := NewABREnv(video, target, a.Cfg)
	obs := env.Reset()
	for {
		var action []float64
		if stochastic {
			action, _ = a.Policy.Sample(rng, obs)
		} else {
			action = a.Policy.Mode(obs)
		}
		next, _, done := env.Step(action)
		obs = next
		if done {
			break
		}
	}
	tr := &trace.Trace{Name: name}
	for _, bw := range env.BandwidthHistory() {
		tr.Points = append(tr.Points, trace.Point{
			Duration:      video.ChunkSeconds,
			BandwidthMbps: bw,
			LatencyMs:     a.Cfg.RTTSeconds * 1000 / 2,
		})
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
