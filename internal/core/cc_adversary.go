package core

import (
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// CCAdversaryConfig parameterizes the congestion-control adversary of §4.
// The default action ranges are Table 1 of the paper.
type CCAdversaryConfig struct {
	BandwidthLo float64 // Mbps, Table 1: 6
	BandwidthHi float64 // Mbps, Table 1: 24
	LatencyLoMs float64 // one-way ms, Table 1: 15
	LatencyHiMs float64 // Table 1: 60
	LossLo      float64 // Table 1: 0
	LossHi      float64 // Table 1: 0.10

	IntervalS    float64 // action granularity, paper: 30 ms
	EpisodeSteps int     // steps per episode (1000 → the paper's 30 s runs)
	SmoothCoef   float64 // weight of S in 1−U−L−0.01·S
	EWMAAlpha    float64 // smoothing-reference EWMA factor
	QueuePackets int     // bottleneck queue size
	Hidden       []int   // paper: a single hidden layer of 4 neurons
	InitLogStd   float64
	MaxLogStd    float64 // cap on effective exploration noise (see rl.GaussianPolicy)
}

// DefaultCCAdversaryConfig returns the paper's §4 settings (Table 1 ranges,
// 30 ms granularity, reward 1 − U − L − 0.01·S).
func DefaultCCAdversaryConfig() CCAdversaryConfig {
	return CCAdversaryConfig{
		BandwidthLo:  6,
		BandwidthHi:  24,
		LatencyLoMs:  15,
		LatencyHiMs:  60,
		LossLo:       0,
		LossHi:       0.10,
		IntervalS:    0.03,
		EpisodeSteps: 1000,
		SmoothCoef:   0.01,
		EWMAAlpha:    0.05,
		QueuePackets: 128,
		Hidden:       []int{4},
		InitLogStd:   -1.2,
		MaxLogStd:    -1.0,
	}
}

// Ranges returns the Table-1 action ranges as (lo, hi) pairs in the order
// bandwidth (Mbps), latency (ms), loss rate.
func (c CCAdversaryConfig) Ranges() [3][2]float64 {
	return [3][2]float64{
		{c.BandwidthLo, c.BandwidthHi},
		{c.LatencyLoMs, c.LatencyHiMs},
		{c.LossLo, c.LossHi},
	}
}

// decode maps raw policy outputs (nominally [−1,1] per dimension) to link
// conditions within the configured ranges.
func (c CCAdversaryConfig) decode(raw []float64) CCAction {
	a := CCAction{
		BandwidthMbps: mapRange(raw[0], c.BandwidthLo, c.BandwidthHi),
		LatencyMs:     mapRange(raw[1], c.LatencyLoMs, c.LatencyHiMs),
		LossRate:      mapRange(raw[2], c.LossLo, c.LossHi),
	}
	copy(a.Raw[:], raw)
	return a
}

func mapRange(x, lo, hi float64) float64 {
	return lo + (hi-lo)*(mathx.Clamp(x, -1, 1)+1)/2
}

// smoothPenalty is the smoothing factor S: the deviation of a's bandwidth and
// latency from their EWMAs, each normalized by its range. The EWMAs are
// updated after measuring the deviation.
func (c CCAdversaryConfig) smoothPenalty(bw, lat *mathx.EWMA, a CCAction) float64 {
	s := 0.0
	if bw.Initialized() {
		s += absf(a.BandwidthMbps-bw.Value()) / (c.BandwidthHi - c.BandwidthLo)
		s += absf(a.LatencyMs-lat.Value()) / (c.LatencyHiMs - c.LatencyLoMs)
	}
	bw.Update(a.BandwidthMbps)
	lat.Update(a.LatencyMs)
	return s
}

// CCAction is one decoded adversary action.
type CCAction struct {
	BandwidthMbps float64
	LatencyMs     float64
	LossRate      float64
	Raw           [3]float64 // unclipped policy outputs (Figure 6 plots these)
}

// CCStepRecord captures one 30 ms interval of an adversary episode.
type CCStepRecord struct {
	Time           float64
	Action         CCAction
	Utilization    float64
	ThroughputMbps float64
	QueueDelayS    float64
	Reward         float64 // Eq1.Value()
	Eq1            Eq1     // the reward's terms
	State          string  // target's internal state, if exposed
}

// CCEnv is the online congestion-control adversary environment: every
// IntervalS of virtual time the adversary observes (link utilization,
// queuing delay) and fixes the next (bandwidth, latency, loss) tuple; its
// reward is Eq. 1 with Opt 1, Protocol the utilization U, Cost the loss rate
// L and Smooth SmoothCoef·S, S the deviation of bandwidth and latency from
// their exponentially-weighted moving averages. Opt is 1, not 1 − L: a
// schedule-aware sender still fills the link (TestCCOracleSenderFillsLink).
type CCEnv struct {
	cfg    CCAdversaryConfig
	newCC  func() netem.CongestionController
	rng    *mathx.RNG
	target netem.CongestionController
	em     *netem.Emulator

	step    int
	ewmaBw  *mathx.EWMA
	ewmaLat *mathx.EWMA
	lastU   float64
	lastQ   float64
	obs     [2]float64 // the observation Reset and Step return

	records []CCStepRecord
}

// NewCCEnv builds an adversary environment; newCC constructs a fresh target
// protocol each episode, and rng drives the emulator's random loss. It
// panics, naming the field, on a config LoadCCAdversary would refuse.
func NewCCEnv(newCC func() netem.CongestionController, cfg CCAdversaryConfig, rng *mathx.RNG) *CCEnv {
	if err := cfg.validate(); err != nil {
		panic("core: NewCCEnv: " + err.Error())
	}
	return &CCEnv{cfg: cfg, newCC: newCC, rng: rng, records: make([]CCStepRecord, 0, cfg.EpisodeSteps)}
}

// DecodeAction maps raw policy outputs (nominally [−1,1] per dimension) to
// link conditions within the Table-1 ranges.
func (e *CCEnv) DecodeAction(raw []float64) CCAction { return e.cfg.decode(raw) }

// Reset implements rl.Env.
func (e *CCEnv) Reset() []float64 {
	e.target = e.newCC()
	mid := netem.Conditions{
		BandwidthMbps: (e.cfg.BandwidthLo + e.cfg.BandwidthHi) / 2,
		OneWayDelayMs: (e.cfg.LatencyLoMs + e.cfg.LatencyHiMs) / 2,
		LossRate:      0,
	}
	e.em = netem.New(e.target, netem.Config{
		Initial:      mid,
		QueuePackets: e.cfg.QueuePackets,
	}, e.rng.Split())
	e.step = 0
	e.ewmaBw = mathx.NewEWMA(e.cfg.EWMAAlpha)
	e.ewmaLat = mathx.NewEWMA(e.cfg.EWMAAlpha)
	e.lastU, e.lastQ = 0, 0
	e.records = e.records[:0]
	return e.observation()
}

// observation is the paper's two-input state: current link utilization and
// current queuing delay (normalized to roughly unit scale).
func (e *CCEnv) observation() []float64 {
	e.obs = [2]float64{e.lastU, e.lastQ / 0.1}
	return e.obs[:]
}

// Step implements rl.Env.
func (e *CCEnv) Step(raw []float64) ([]float64, float64, bool) {
	a := e.DecodeAction(raw)
	e.em.SetConditions(netem.Conditions{
		BandwidthMbps: a.BandwidthMbps,
		OneWayDelayMs: a.LatencyMs,
		LossRate:      a.LossRate,
	})
	iv := e.em.BeginInterval()
	e.step++
	e.em.Run(float64(e.step) * e.cfg.IntervalS)

	u := e.em.Utilization(iv, a.BandwidthMbps)
	q := e.em.QueueingDelay()
	e.lastU, e.lastQ = u, q

	s := e.cfg.smoothPenalty(e.ewmaBw, e.ewmaLat, a)
	r := Eq1{Opt: 1, Protocol: u, Cost: a.LossRate, Smooth: e.cfg.SmoothCoef * s}
	reward := r.Value()

	rec := CCStepRecord{
		Time:           float64(e.step) * e.cfg.IntervalS,
		Action:         a,
		Utilization:    u,
		ThroughputMbps: e.em.ThroughputMbps(iv),
		QueueDelayS:    q,
		Reward:         reward,
		Eq1:            r,
	}
	if st, ok := e.target.(interface{ State() string }); ok {
		rec.State = st.State()
	}
	e.records = append(e.records, rec)

	done := e.step >= e.cfg.EpisodeSteps
	return e.observation(), reward, done
}

// ObservationSize implements rl.Env.
func (e *CCEnv) ObservationSize() int { return 2 }

// ActionSpec implements rl.Env.
func (e *CCEnv) ActionSpec() rl.ActionSpec {
	return rl.ActionSpec{
		Dim:  3,
		Low:  []float64{-1, -1, -1},
		High: []float64{1, 1, 1},
	}
}

// Records returns the per-interval records of the current episode.
func (e *CCEnv) Records() []CCStepRecord { return e.records }

// CCAdversary is a trained congestion-control adversary.
type CCAdversary struct {
	Policy *rl.GaussianPolicy `json:"policy"`
	Cfg    CCAdversaryConfig  `json:"cfg"`
}

// NewCCAdversary builds an untrained adversary.
func NewCCAdversary(rng *mathx.RNG, cfg CCAdversaryConfig) *CCAdversary {
	return &CCAdversary{Policy: newCCPolicy(rng, cfg), Cfg: cfg}
}

// newCCPolicy builds the Gaussian policy from CCEnv's two observations to
// its three actions (bandwidth, latency, loss).
func newCCPolicy(rng *mathx.RNG, cfg CCAdversaryConfig) *rl.GaussianPolicy {
	pol := rl.NewGaussianPolicy(nn.NewMLP(rng, mlpSizes(2, cfg.Hidden, 3), nn.Tanh), cfg.InitLogStd)
	if cfg.MaxLogStd != 0 {
		pol.MaxLogStd = cfg.MaxLogStd
	}
	return pol
}

// CCTrainOptions is TrainOptions under the name the congestion-control
// callers know.
type CCTrainOptions = TrainOptions

// DefaultCCTrainOptions returns settings sized for the repository's
// experiments (the paper: ~600k 30 ms action/observation pairs over 200
// iterations — Iterations 300 at RolloutSteps 2000 matches that budget). The
// long horizon is deliberate: the attack's payoff arrives ~10 BBR round
// trips after the action.
func DefaultCCTrainOptions() TrainOptions {
	return TrainOptions{Iterations: 150, RolloutSteps: 2000, LR: 3e-4, Gamma: 0.995, Lambda: 0.97}
}

// TrainCCAdversary trains a fresh adversary against the protocol produced by
// newCC and returns it with per-iteration statistics. Each lane's emulator
// draws from its own stream, split from the training RNG in lane order. The
// value net is deliberately larger than the paper's tiny policy: it only
// aids training and does not constrain the learned adversary. With
// opt.Workers > 1 newCC must be safe to call from multiple goroutines.
// CCEnv does not checkpoint its emulator state, so a resumed run abandons
// any half-collected episode.
func TrainCCAdversary(newCC func() netem.CongestionController, cfg CCAdversaryConfig, opt TrainOptions, rng *mathx.RNG) (*CCAdversary, []rl.IterStats, error) {
	ppo, stats, err := rl.Train(rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return newCCPolicy(rng, cfg), nn.NewMLP(rng, []int{2, 16, 1}, nn.Tanh)
		},
		Config: rl.DefaultPPOConfig(),
		Envs: func(lanes int, rng *mathx.RNG) (rl.EnvFactory, error) {
			rngs := make([]*mathx.RNG, lanes)
			for i := range rngs {
				rngs[i] = rng.Split()
			}
			return func(lane int) rl.Env { return NewCCEnv(newCC, cfg, rngs[lane]) }, nil
		},
	}, opt, rng)
	if err != nil {
		return nil, nil, err
	}
	return &CCAdversary{Policy: ppo.Policy.(*rl.GaussianPolicy), Cfg: cfg}, stats, nil
}

// RunEpisode plays the adversary online against a fresh target for one
// episode and returns the per-interval records (deterministic actions when
// stochastic is false — the Figure 6 setting, "without training noise").
func (a *CCAdversary) RunEpisode(newCC func() netem.CongestionController, rng *mathx.RNG, stochastic bool) []CCStepRecord {
	env := NewCCEnv(newCC, a.Cfg, rng)
	rl.RunEpisode(a.Policy, env, rng, stochastic, nil)
	return env.Records()
}

// RecordsToTrace converts an episode's actions into a replayable trace.
func RecordsToTrace(records []CCStepRecord, intervalS float64, name string) *trace.Trace {
	tr := &trace.Trace{Name: name}
	for _, r := range records {
		tr.Points = append(tr.Points, trace.Point{
			Duration:      intervalS,
			BandwidthMbps: r.Action.BandwidthMbps,
			LatencyMs:     r.Action.LatencyMs,
			LossRate:      r.Action.LossRate,
		})
	}
	return tr
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
