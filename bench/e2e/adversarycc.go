package main

import (
	"fmt"

	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/netem"
)

const ccEpisodes = 2 // deterministic episodes played and replayed per unit

// adversaryCC is the paper's §4 experiment (Figs. 5–6) in miniature: train
// the congestion-control adversary against BBR, play it without noise,
// turn the episodes into traces and replay them against Cubic. The packet
// loop of netem.Emulator with vclock and cc does nearly all the work; the
// nets are 2-input toys, so an nn speed-up must not move this workload and
// a netem one must.
type adversaryCC struct {
	cfg  core.CCAdversaryConfig
	opt  core.CCTrainOptions
	seed uint64
}

// ccTrainSeed seeds the adversary's training in every run. How many packets
// the emulator simulates in 24 000 training intervals — the unit's work —
// swings by 15% with the training stream (BBR's state machine, the loss
// draws and the exploration noise feed each other), so a trainer seeded from
// --seed would make the unit a different amount of work on every seed.
// --seed drives the emulator streams of the set-up episode and of the
// evaluation episodes and replays instead.
const ccTrainSeed = 1

func newBBR() netem.CongestionController { return cc.NewBBR() }

func setupAdversaryCC(seed uint64) (instance, error) {
	a := &adversaryCC{cfg: core.DefaultCCAdversaryConfig(), opt: core.DefaultCCTrainOptions(), seed: seed}
	a.opt.Iterations = 12
	a.opt.RolloutSteps = 2000
	// First answered op: one noise-free episode of an untrained adversary,
	// which exercises the emulator, BBR and the Table-1 action decoding.
	adv := core.NewCCAdversary(mathx.NewRNG(ccTrainSeed), a.cfg)
	if bad := outOfRange(a.cfg, adv.RunEpisode(newBBR, mathx.NewRNG(seed), false)); bad > 0 {
		return nil, fmt.Errorf("adversary_cc: %d actions outside Table 1 during set-up", bad)
	}
	return a, nil
}

func (a *adversaryCC) close() error { return nil }

// outOfRange counts records whose action left the Table 1 ranges.
func outOfRange(cfg core.CCAdversaryConfig, recs []core.CCStepRecord) int64 {
	r := cfg.Ranges()
	var bad int64
	for _, rec := range recs {
		act := [3]float64{rec.Action.BandwidthMbps, rec.Action.LatencyMs, rec.Action.LossRate}
		for i, v := range act {
			if !(v >= r[i][0] && v <= r[i][1]) { // also catches NaN
				bad++
				break
			}
		}
	}
	return bad
}

func (a *adversaryCC) unit(sp *spans) (unitOut, error) {
	s := sp.begin("core.cc_train")
	adv, _, err := core.TrainCCAdversary(newBBR, a.cfg, a.opt, mathx.NewRNG(ccTrainSeed))
	sp.end(s)
	if err != nil {
		return unitOut{}, err
	}

	var episodes [ccEpisodes][]core.CCStepRecord
	var replays [ccEpisodes][]cc.Sample
	var out unitOut
	out.ops = int64(a.opt.Iterations * a.opt.RolloutSteps)
	rng := mathx.NewRNG(a.seed)
	for e := range episodes {
		s = sp.begin("core.cc_episode")
		episodes[e] = adv.RunEpisode(newBBR, rng.Split(), false)
		sp.end(s)

		s = sp.begin("cc.run_trace")
		tr := core.RecordsToTrace(episodes[e], a.cfg.IntervalS, "adversarial")
		replays[e] = cc.RunTrace(cc.NewCubic(), tr, netem.Config{QueuePackets: a.cfg.QueuePackets}, rng.Split(), a.cfg.IntervalS)
		sp.end(s)

		out.ops += int64(len(episodes[e]) + len(replays[e]))
	}

	out.verify = func() ([32]byte, int64) {
		d := newDigest()
		var failed int64
		for e := range episodes {
			failed += outOfRange(a.cfg, episodes[e])
			for _, r := range episodes[e] {
				d.floats([]float64{r.Time, r.Action.BandwidthMbps, r.Action.LatencyMs, r.Action.LossRate,
					r.Action.Raw[0], r.Action.Raw[1], r.Action.Raw[2],
					r.Utilization, r.ThroughputMbps, r.QueueDelayS, r.Reward})
				d.str(r.State)
			}
			for _, smp := range replays[e] {
				vals := []float64{smp.Time, smp.ThroughputMbps, smp.QueueDelayS, smp.Utilization}
				failed += nonFinite(vals)
				d.floats(vals)
				d.str(smp.State)
			}
		}
		return d.sum(), failed
	}
	return out, nil
}
