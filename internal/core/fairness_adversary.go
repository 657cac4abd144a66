package core

import (
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/rl"
)

// FairnessEnv extends the congestion-control adversary to *competing* flows,
// the setting behind §5's incast/congestion adversary ideas: the adversary
// controls the shared link's conditions and is rewarded for driving the
// flows' bandwidth shares apart (1 − Jain index), again minus loss and
// smoothing costs so the unfairness must come from exploiting the protocols'
// dynamics rather than from trivially killing the link.
type FairnessEnv struct {
	cfg    CCAdversaryConfig
	newCCs []func() netem.CongestionController
	rng    *mathx.RNG

	em       *netem.Emulator
	step     int
	ewmaBw   *mathx.EWMA
	ewmaLat  *mathx.EWMA
	lastObs  []float64 // the observation Reset and Step return
	lastBits []float64
	shares   []float64 // per-flow share scratch

	records []FairnessRecord
}

// FairnessRecord captures one interval of a fairness-adversary episode.
type FairnessRecord struct {
	Time       float64
	Action     CCAction
	Shares     []float64 // per-flow share of delivered bits this interval
	Jain       float64
	QueueDelay float64
	Reward     float64 // Eq1.Value()
	Eq1        Eq1     // the reward's terms: Opt 1, Protocol Jain, Cost L, Smooth c·S
}

// NewFairnessEnv builds an environment over the given competing flows
// (at least two).
func NewFairnessEnv(newCCs []func() netem.CongestionController, cfg CCAdversaryConfig, rng *mathx.RNG) *FairnessEnv {
	if len(newCCs) < 2 {
		panic("core: FairnessEnv needs at least two flows")
	}
	n := len(newCCs)
	return &FairnessEnv{cfg: cfg, newCCs: newCCs, rng: rng, lastObs: make([]float64, n+1), lastBits: make([]float64, n), shares: make([]float64, n)}
}

// Reset implements rl.Env.
func (e *FairnessEnv) Reset() []float64 {
	ccs := make([]netem.CongestionController, len(e.newCCs))
	for i, f := range e.newCCs {
		ccs[i] = f()
	}
	mid := netem.Conditions{
		BandwidthMbps: (e.cfg.BandwidthLo + e.cfg.BandwidthHi) / 2,
		OneWayDelayMs: (e.cfg.LatencyLoMs + e.cfg.LatencyHiMs) / 2,
	}
	e.em = netem.NewMulti(ccs, netem.Config{
		Initial:      mid,
		QueuePackets: e.cfg.QueuePackets,
	}, e.rng.Split())
	e.step = 0
	e.ewmaBw = mathx.NewEWMA(e.cfg.EWMAAlpha)
	e.ewmaLat = mathx.NewEWMA(e.cfg.EWMAAlpha)
	clear(e.lastObs)
	clear(e.lastBits)
	e.records = e.records[:0]
	return e.lastObs
}

// Step implements rl.Env.
func (e *FairnessEnv) Step(raw []float64) ([]float64, float64, bool) {
	a := e.cfg.decode(raw)
	e.em.SetConditions(netem.Conditions{
		BandwidthMbps: a.BandwidthMbps,
		OneWayDelayMs: a.LatencyMs,
		LossRate:      a.LossRate,
	})
	e.step++
	e.em.Run(float64(e.step) * e.cfg.IntervalS)

	// Per-flow deliveries over this interval.
	shares := e.shares
	var total float64
	for i := range shares {
		bits := e.em.FlowDeliveredBits(i)
		shares[i] = bits - e.lastBits[i]
		e.lastBits[i] = bits
		total += shares[i]
	}
	jain := 1.0
	if total > 0 {
		var sumSq float64
		for i := range shares {
			shares[i] /= total
			sumSq += shares[i] * shares[i]
		}
		jain = 1 / (float64(len(shares)) * sumSq)
	} else {
		for i := range shares {
			shares[i] = 0
		}
	}

	s := e.cfg.smoothPenalty(e.ewmaBw, e.ewmaLat, a)
	r := Eq1{Opt: 1, Protocol: jain, Cost: a.LossRate, Smooth: e.cfg.SmoothCoef * s}
	reward := r.Value()

	q := e.em.QueueingDelay()
	copy(e.lastObs, shares)
	e.lastObs[len(shares)] = q / 0.1

	e.records = append(e.records, FairnessRecord{
		Time:       float64(e.step) * e.cfg.IntervalS,
		Action:     a,
		Shares:     mathx.CopyOf(shares),
		Jain:       jain,
		QueueDelay: q,
		Reward:     reward,
		Eq1:        r,
	})
	done := e.step >= e.cfg.EpisodeSteps
	return e.lastObs, reward, done
}

// ObservationSize implements rl.Env: per-flow shares plus queueing delay.
func (e *FairnessEnv) ObservationSize() int { return len(e.newCCs) + 1 }

// ActionSpec implements rl.Env.
func (e *FairnessEnv) ActionSpec() rl.ActionSpec {
	return rl.ActionSpec{Dim: 3, Low: []float64{-1, -1, -1}, High: []float64{1, 1, 1}}
}

// Records returns the per-interval records of the current episode.
func (e *FairnessEnv) Records() []FairnessRecord { return e.records }

// TrainFairnessAdversary trains an adversary to drive the given flows apart.
// Each lane's emulator draws from its own stream, split in lane order; with
// opt.Workers > 1 the newCCs constructors must be safe to call from multiple
// goroutines.
func TrainFairnessAdversary(newCCs []func() netem.CongestionController, cfg CCAdversaryConfig, opt TrainOptions, rng *mathx.RNG) (*CCAdversary, []rl.IterStats, error) {
	return trainCC(ccProblem(len(newCCs)+1, cfg, func(rng *mathx.RNG) rl.Env { return NewFairnessEnv(newCCs, cfg, rng) }), cfg, opt, rng)
}
