package main

import (
	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/trace"
)

const abrRTT = 0.08 // chunk-request round trip every ABR trainer in the repo uses

// robustify is the paper's own loop (§2.3, Fig. 4) at a size that finishes
// in under half a second: train Pensieve, train an adversary against it,
// generate adversarial traces, finish training on the merged dataset, then
// evaluate on both trace sets. All the work is nn per-sample forward and
// backward plus the rl update; netem, swarm, serve and dist are not touched.
type robustify struct {
	video     *abr.Video
	data      *trace.Dataset
	cfg       core.RobustTrainConfig
	trainSeed uint64 // the same for every unit, so every unit's digest must agree
}

func robustifyConfig() core.RobustTrainConfig {
	cfg := core.DefaultRobustTrainConfig()
	cfg.TotalIterations = 4
	cfg.InjectAtFrac = 0.5
	cfg.RolloutSteps = 1024
	cfg.AdversarialTraces = 4
	cfg.AdvOpt.Iterations = 2
	cfg.AdvOpt.RolloutSteps = 1024
	cfg.Workers = 1
	return cfg
}

func setupRobustify(seed uint64) (instance, error) {
	root := mathx.NewRNG(seed)
	r := &robustify{cfg: robustifyConfig()}
	r.video = abr.NewVideo(root.Split(), abr.DefaultVideoConfig())
	r.data = trace.GenerateFCCLikeDataset(root.Split(), trace.DefaultFCCLike(), 40, "fcc")
	r.trainSeed = root.Uint64()
	// First answered op: one PPO iteration on these inputs, so a set-up that
	// hands the trainer something it cannot step on fails here, not in a unit.
	if _, _, err := abr.TrainPensieve(r.video, r.data, 1, mathx.NewRNG(r.trainSeed)); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *robustify) close() error { return nil }

// ops counts what users quote a trainer's speed in: environment steps the
// two PPO loops took, plus chunks streamed by the two evaluations.
func (r *robustify) ops() int64 {
	steps := r.cfg.TotalIterations*r.cfg.RolloutSteps + r.cfg.AdvOpt.Iterations*r.cfg.AdvOpt.RolloutSteps
	chunks := (len(r.data.Traces) + r.cfg.AdversarialTraces) * r.video.NumChunks()
	return int64(steps + chunks)
}

func (r *robustify) unit(sp *spans) (unitOut, error) {
	var agent *abr.Pensieve
	var advTraces *trace.Dataset
	if sp == nil {
		res, err := core.TrainRobustPensieve(r.video, r.data, r.cfg, mathx.NewRNG(r.trainSeed))
		if err != nil {
			return unitOut{}, err
		}
		agent, advTraces = res.Protocol, res.AdversarialTraces
	} else {
		var err error
		if agent, advTraces, err = r.staged(sp); err != nil {
			return unitOut{}, err
		}
	}
	ev := sp.begin("core.eval")
	qoe, err := core.EvaluateABR(r.video, r.data, agent, abrRTT, 1)
	if err != nil {
		return unitOut{}, err
	}
	advQoE, err := core.EvaluateABRChunked(r.video, advTraces, agent, abrRTT, 1)
	if err != nil {
		return unitOut{}, err
	}
	sp.end(ev)

	params := agent.Policy.Params()
	return unitOut{ops: r.ops(), verify: func() ([32]byte, int64) {
		d := newDigest()
		d.params(params)
		d.floats(qoe)
		d.floats(advQoE)
		return d.sum(), nonFinite(qoe, advQoE) + nonFinite(params...)
	}}, nil
}

// staged is TrainRobustPensieve taken apart into the public functions it is
// made of, with a span around each, consuming the RNG in the same order —
// so the traced unit's digest equals the untraced one's and the phase times
// are times of the real unit, not of a look-alike.
func (r *robustify) staged(sp *spans) (*abr.Pensieve, *trace.Dataset, error) {
	rng := mathx.NewRNG(r.trainSeed)
	phase1 := int(float64(r.cfg.TotalIterations) * r.cfg.InjectAtFrac)

	s := sp.begin("core.phase1")
	agent, ppo, err := abr.TrainPensieve(r.video, r.data, phase1, rng)
	sp.end(s)
	if err != nil {
		return nil, nil, err
	}

	s = sp.begin("core.adv_train")
	adv, _, err := core.TrainABRAdversary(r.video, agent, r.cfg.AdvCfg, r.cfg.AdvOpt, rng.Split())
	sp.end(s)
	if err != nil {
		return nil, nil, err
	}

	s = sp.begin("core.trace_gen")
	advTraces := adv.GenerateTraces(r.video, agent, rng.Split(), r.cfg.AdversarialTraces, "adversarial")
	merged := r.data.Merge(advTraces)
	sp.end(s)

	s = sp.begin("core.phase2")
	env := abr.NewTrainEnv(r.video, merged, abr.DefaultSessionConfig(), abrRTT, rng.Split())
	ppo.Train(env, r.cfg.TotalIterations-phase1)
	sp.end(s)
	return agent, advTraces, nil
}
