package core

import (
	"math"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/routing"
)

// This file transposes the framework to the routing domain the paper
// motivates (§1, §2.3 [26], §5): the adversary controls the *demand matrix*
// a routing scheme must serve, and is rewarded — exactly in the shape of
// Eq. 1 — by how much more congestion (max link utilization) the scheme
// suffers than congestion-optimal routing would on the same demands, minus a
// smoothness penalty on demand changes. Trivially hostile demands (so large
// that even optimal routing saturates) earn nothing, because r_opt rises
// with them too.

// RoutingAdversaryConfig parameterizes the routing adversary.
type RoutingAdversaryConfig struct {
	// Pairs are the (src, dst) commodities whose rates the adversary sets.
	Pairs [][2]int
	// MaxRate caps each commodity's rate.
	MaxRate float64
	// Rounds is the episode length (demand matrices per episode).
	Rounds int
	// SmoothWeight penalizes mean |Δrate| between consecutive rounds.
	SmoothWeight float64
	Hidden       []int
	InitLogStd   float64
}

// DefaultRoutingAdversaryConfig returns a configuration with the given
// commodity pairs.
func DefaultRoutingAdversaryConfig(pairs [][2]int) RoutingAdversaryConfig {
	return RoutingAdversaryConfig{
		Pairs:        pairs,
		MaxRate:      1.0,
		Rounds:       32,
		SmoothWeight: 0.1,
		Hidden:       []int{32, 16},
		InitLogStd:   -0.5,
	}
}

// RoutingEnv is the adversary environment: each step the adversary emits a
// demand matrix, the target scheme routes it, and the reward is the MLU gap
// to the oracle.
type RoutingEnv struct {
	cfg    RoutingAdversaryConfig
	top    *routing.Topology
	scheme routing.Scheme
	oracle *routing.Oracle

	round     int
	lastRates []float64
	lastUtil  []float64 // per-edge utilization of the scheme's last routing: the observation Reset and Step return
	last      Eq1       // the last step's reward terms
}

// NewRoutingEnv builds an adversary environment against the given scheme.
func NewRoutingEnv(top *routing.Topology, scheme routing.Scheme, cfg RoutingAdversaryConfig) *RoutingEnv {
	if len(cfg.Pairs) == 0 {
		panic("core: RoutingEnv with no commodity pairs")
	}
	return &RoutingEnv{
		cfg:       cfg,
		top:       top,
		scheme:    scheme,
		oracle:    routing.NewOracle(),
		lastRates: make([]float64, len(cfg.Pairs)),
		lastUtil:  make([]float64, len(top.Edges)),
	}
}

// Reset implements rl.Env.
func (e *RoutingEnv) Reset() []float64 {
	e.round = 0
	clear(e.lastRates)
	clear(e.lastUtil)
	return e.lastUtil
}

// DecodeAction maps raw [-1,1] outputs to per-commodity rates.
func (e *RoutingEnv) DecodeAction(raw []float64) routing.DemandMatrix {
	d := make(routing.DemandMatrix, len(e.cfg.Pairs))
	for i, p := range e.cfg.Pairs {
		rate := (mathx.Clamp(raw[i], -1, 1) + 1) / 2 * e.cfg.MaxRate
		d[i] = routing.Demand{Src: p[0], Dst: p[1], Rate: rate}
	}
	return d
}

// Step implements rl.Env.
func (e *RoutingEnv) Step(raw []float64) ([]float64, float64, bool) {
	d := e.DecodeAction(raw)

	schemeRouting := e.scheme.Route(e.top, d)
	schemeMLU := routing.MLU(e.top, schemeRouting)
	optMLU := routing.MLU(e.top, e.oracle.Route(e.top, d))

	var smooth float64
	for i, dem := range d {
		smooth += math.Abs(dem.Rate-e.lastRates[i]) / e.cfg.MaxRate
		e.lastRates[i] = dem.Rate
	}
	smooth /= float64(len(d))

	// Lower congestion is better, so both MLUs enter negated.
	e.last = Eq1{Opt: -optMLU, Protocol: -schemeMLU, Smooth: e.cfg.SmoothWeight * smooth}

	// The observation is the per-edge utilization the scheme produced — the
	// routing analogue of "observing the protocol's behaviour".
	loads := schemeRouting.EdgeLoads(len(e.top.Edges))
	for ei := range e.lastUtil {
		e.lastUtil[ei] = loads[ei] / e.top.Edges[ei].Capacity
	}

	e.round++
	return e.lastUtil, e.last.Value(), e.round >= e.cfg.Rounds
}

// ObservationSize implements rl.Env.
func (e *RoutingEnv) ObservationSize() int { return len(e.top.Edges) }

// ActionSpec implements rl.Env.
func (e *RoutingEnv) ActionSpec() rl.ActionSpec {
	n := len(e.cfg.Pairs)
	low := make([]float64, n)
	high := make([]float64, n)
	for i := range low {
		low[i], high[i] = -1, 1
	}
	return rl.ActionSpec{Dim: n, Low: low, High: high}
}

// RoutingAdversary is a trained demand-matrix adversary.
type RoutingAdversary struct {
	Policy *rl.GaussianPolicy
	Cfg    RoutingAdversaryConfig
}

// NewRoutingAdversary builds an untrained adversary for a topology.
func NewRoutingAdversary(rng *mathx.RNG, top *routing.Topology, cfg RoutingAdversaryConfig) *RoutingAdversary {
	net := nn.NewMLP(rng, mlpSizes(len(top.Edges), cfg.Hidden, len(cfg.Pairs)), nn.Tanh)
	return &RoutingAdversary{Policy: rl.NewGaussianPolicy(net, cfg.InitLogStd), Cfg: cfg}
}

// TrainRoutingAdversary trains an adversary against a routing scheme. Each
// lane gets its own RoutingEnv (private round state and oracle); the scheme
// itself is shared, which is safe for the stateless built-ins (SPF, ECMP,
// Oracle) — a stateful custom scheme must have a concurrency-safe Route.
func TrainRoutingAdversary(top *routing.Topology, scheme routing.Scheme, cfg RoutingAdversaryConfig, opt TrainOptions, rng *mathx.RNG) (*RoutingAdversary, []rl.IterStats, error) {
	ppo, stats, err := rl.Train(rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return NewRoutingAdversary(rng, top, cfg).Policy, nn.NewMLP(rng, mlpSizes(len(top.Edges), cfg.Hidden, 1), nn.Tanh)
		},
		Config: rl.DefaultPPOConfig(),
		Envs: func(int, *mathx.RNG) (rl.EnvFactory, error) {
			return func(int) rl.Env { return NewRoutingEnv(top, scheme, cfg) }, nil
		},
	}, opt, rng)
	if err != nil {
		return nil, nil, err
	}
	return &RoutingAdversary{Policy: ppo.Policy.(*rl.GaussianPolicy), Cfg: cfg}, stats, nil
}

// GenerateDemands runs one deterministic episode against the scheme and
// returns the sequence of demand matrices the adversary emitted.
func (a *RoutingAdversary) GenerateDemands(top *routing.Topology, scheme routing.Scheme) []routing.DemandMatrix {
	env := NewRoutingEnv(top, scheme, a.Cfg)
	var out []routing.DemandMatrix
	rl.RunEpisode(a.Policy, env, nil, false, func(action []float64) {
		out = append(out, env.DecodeAction(action))
	})
	return out
}
