package core

import (
	"fmt"
	"path/filepath"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/par"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// RobustTrainConfig parameterizes the §2.3 pipeline for making an RL-based
// protocol robust: (1) train the protocol, (2) train an adversary against
// it, (3) generate adversarial traces, (4) continue the protocol's training
// with those traces mixed into its dataset.
type RobustTrainConfig struct {
	// TotalIterations is the protocol's total PPO iteration budget.
	TotalIterations int
	// InjectAtFrac is the fraction of TotalIterations after which the
	// adversarial traces are injected (the paper evaluates 0.9 and 0.7).
	// A value >= 1 (or <= 0) disables adversarial training entirely.
	InjectAtFrac float64
	// AdversarialTraces is the number of traces the adversary generates.
	AdversarialTraces int
	// AdvCfg and AdvOpt configure the adversary trained in step (2).
	AdvCfg ABRAdversaryConfig
	AdvOpt TrainOptions
	// RolloutSteps / LR configure the protocol's PPO.
	RolloutSteps int
	LR           float64
	RTTSeconds   float64
	// Workers is the protocol phases' lane count (phases 1 and 4): like
	// rl.TrainOptions.Lanes, part of the run's identity. It becomes Lanes,
	// with its one setter, in the benchmark's next change. Lane l of L
	// streams traces l, l+L, … of the phase's dataset and the lanes' cursors
	// ride along in checkpoints (DESIGN.md §8.3), so it must not exceed
	// len(dataset.Traces). The adversary has its own AdvOpt.Lanes. Workers
	// ≤ 1 is one lane on the calling goroutine over the whole dataset.
	Workers int
	// Checkpoint enables crash-safe training: the protocol phases save
	// periodic atomic checkpoints under Checkpoint.Dir (in phase1/ and
	// phase2/ subdirectories — the phases use different datasets, so their
	// checkpoints must not be confused), the trained adversary and its
	// generated traces are persisted alongside as adversary.json and
	// adversarial-traces.json, and a re-run with identical arguments
	// resumes from whatever the previous process completed. The zero value
	// disables checkpointing (the divergence watchdog stays active).
	Checkpoint rl.CheckpointConfig
}

// DefaultRobustTrainConfig returns a pipeline configuration sized for the
// repository's experiments.
func DefaultRobustTrainConfig() RobustTrainConfig {
	return RobustTrainConfig{
		TotalIterations:   40,
		InjectAtFrac:      0.9,
		AdversarialTraces: 40,
		AdvCfg:            DefaultABRAdversaryConfig(),
		AdvOpt:            DefaultABRTrainOptions(),
		RolloutSteps:      1024,
		LR:                1e-3,
		RTTSeconds:        0.08,
	}
}

// RobustTrainResult reports what the pipeline did.
type RobustTrainResult struct {
	Protocol          *abr.Pensieve
	Adversary         *ABRAdversary // nil when adversarial training was disabled
	AdversarialTraces *trace.Dataset
	Phase1Iterations  int
	Phase2Iterations  int
	// Stats holds the per-iteration statistics of the protocol-training
	// iterations this call executed (iterations completed by an earlier
	// process and restored from a checkpoint are not re-reported).
	Stats []rl.IterStats
}

// TrainRobustPensieve runs the §2.3 pipeline: it trains a Pensieve-style
// agent on dataset, pauses at InjectAtFrac of the iteration budget, trains
// an ABR adversary against the partially-trained agent, generates
// adversarial traces, and finishes training on the union of the original
// dataset and the adversarial traces.
func TrainRobustPensieve(video *abr.Video, dataset *trace.Dataset, cfg RobustTrainConfig, rng *mathx.RNG) (*RobustTrainResult, error) {
	if cfg.TotalIterations <= 0 {
		return nil, fmt.Errorf("core: TotalIterations=%d", cfg.TotalIterations)
	}
	// Both protocol phases are the one Pensieve problem, over the original
	// dataset and then the merged one, trained by the same trainer.
	lanes := max(1, cfg.Workers)
	problem := func(ds *trace.Dataset) rl.Problem {
		pr := abr.PensieveProblem(video, ds, cfg.RTTSeconds)
		pr.Config.RolloutSteps = cfg.RolloutSteps
		pr.Config.LR = cfg.LR
		return pr
	}
	ppo, envs, err := rl.NewTrainer(problem(dataset), lanes, rng)
	if err != nil {
		return nil, err
	}

	phase1 := cfg.TotalIterations
	adversarial := cfg.InjectAtFrac > 0 && cfg.InjectAtFrac < 1
	if adversarial {
		phase1 = int(float64(cfg.TotalIterations) * cfg.InjectAtFrac)
		if phase1 < 1 {
			phase1 = 1
		}
	}

	// Checkpoint layout: each phase trains on a different dataset, so each
	// gets its own checkpoint subdirectory, and the phase-1 products the
	// phase-2 setup depends on (adversary, generated traces) are persisted
	// as artifacts next to them.
	ck := cfg.Checkpoint
	var ck1, ck2 rl.CheckpointConfig
	var advPath, tracesPath string
	if ck.Dir != "" {
		ck1 = rl.CheckpointConfig{Dir: filepath.Join(ck.Dir, "phase1"), Every: ck.Every, Keep: ck.Keep}
		ck2 = rl.CheckpointConfig{Dir: filepath.Join(ck.Dir, "phase2"), Every: ck.Every, Keep: ck.Keep}
		advPath = filepath.Join(ck.Dir, "adversary.json")
		tracesPath = filepath.Join(ck.Dir, "adversarial-traces.json")
	}

	// trainPhase runs one protocol-training phase on the given environments
	// until the trainer has completed `target` total iterations. On resume,
	// every stream the problem split off for them is overwritten by the
	// state restored from the checkpoint.
	trainPhase := func(envs rl.EnvFactory, target int, pck rl.CheckpointConfig) ([]rl.IterStats, error) {
		v, err := rl.NewVecRunner(ppo, envs, lanes)
		if err != nil {
			return nil, err
		}
		return v.TrainCheckpointed(target, pck)
	}

	// A phase-2 checkpoint supersedes everything phase 1 trained: loading it
	// restores the full trainer (including the master RNG the trainer
	// shares), so phase 1 is skipped outright.
	resumePhase2 := false
	if adversarial && ck.Dir != "" {
		if _, _, err := (&rl.CheckpointDir{Dir: ck2.Dir}).Latest(); err == nil {
			resumePhase2 = true
		}
	}

	res := &RobustTrainResult{Phase1Iterations: phase1}

	// Step 1: train the protocol of interest.
	if !resumePhase2 {
		stats, err := trainPhase(envs, phase1, ck1)
		res.Stats = append(res.Stats, stats...)
		if err != nil {
			return nil, err
		}
	}
	agent := abr.NewPensieve(ppo.Policy.(*rl.CategoricalPolicy))
	res.Protocol = agent
	if !adversarial {
		return res, nil
	}

	// Steps 2 and 3: obtain the adversary and its generated traces — from
	// the artifacts a previous process persisted, or by training one against
	// the (partially-trained) protocol and persisting the results.
	var adv *ABRAdversary
	var advTraces *trace.Dataset
	if ck.Dir != "" {
		if a, errA := LoadABRAdversary(advPath); errA == nil {
			if d, errT := trace.LoadJSON(tracesPath); errT == nil {
				adv, advTraces = a, d
				// The uninterrupted run consumed two master-RNG splits here
				// (adversary training, trace generation); discard them so
				// every later draw stays stream-aligned.
				rng.Split()
				rng.Split()
			}
		}
	}
	if resumePhase2 && adv == nil {
		return nil, fmt.Errorf("core: phase-2 checkpoints exist under %s but the adversary artifacts are missing or unreadable", ck.Dir)
	}
	if adv == nil {
		var err error
		adv, _, err = TrainABRAdversary(video, agent, cfg.AdvCfg, cfg.AdvOpt, rng.Split())
		if err != nil {
			return nil, err
		}
		advTraces = adv.GenerateTraces(video, agent, rng.Split(), cfg.AdversarialTraces, "adversarial")
		if ck.Dir != "" {
			if err := adv.Save(advPath); err != nil {
				return nil, fmt.Errorf("core: persist adversary: %w", err)
			}
			if err := advTraces.SaveJSON(tracesPath); err != nil {
				return nil, fmt.Errorf("core: persist adversarial traces: %w", err)
			}
		}
	}
	res.Adversary = adv
	res.AdversarialTraces = advTraces

	// Step 4: continue training with the adversarial traces in the
	// training dataset.
	envs, err = problem(dataset.Merge(advTraces)).Envs(lanes, rng)
	if err != nil {
		return nil, err
	}
	res.Phase2Iterations = cfg.TotalIterations - phase1
	stats, err := trainPhase(envs, cfg.TotalIterations, ck2)
	res.Stats = append(res.Stats, stats...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// EvaluateABR streams every trace of a dataset with the given protocol over
// a wall-time trace replay and returns the per-video mean QoE values — the
// unit Figures 1, 2 and 4 plot. workers > 1 evaluates that many traces
// concurrently: worker 0 runs the protocol itself and every other worker an
// abr.CloneProtocol copy, with traces assigned statically (worker w takes
// traces w, w+workers, …) and each QoE written to its trace's slot, so the
// result is identical to the sequential evaluation for any worker count.
// It returns an error for a nil or empty dataset (the previous silent-empty
// return fed empty slices into downstream summary statistics, where
// stats.Min and mathx.Max panic) and when workers > 1 and the protocol is not
// cloneable.
func EvaluateABR(video *abr.Video, dataset *trace.Dataset, p abr.Protocol, rttS float64, workers int) ([]float64, error) {
	return evaluateABR(video, dataset, p, workers, func(tr *trace.Trace) abr.Link {
		return &abr.TraceLink{Trace: tr, RTTSeconds: rttS}
	})
}

// EvaluateABRChunked is EvaluateABR with chunk-indexed replay (chunk i is
// downloaded at the trace's i-th bandwidth), the exact semantic of the
// online adversary's per-chunk actions. Replaying an adversarial trace this
// way against its own target reproduces the online episode exactly. The
// workers parameter and error conditions match EvaluateABR, and a point
// without positive bandwidth is an error before any session starts: a chunk
// served at it would never finish downloading.
func EvaluateABRChunked(video *abr.Video, dataset *trace.Dataset, p abr.Protocol, rttS float64, workers int) ([]float64, error) {
	if dataset != nil {
		for _, tr := range dataset.Traces {
			for i, pt := range tr.Points {
				if !(pt.BandwidthMbps > 0) {
					return nil, fmt.Errorf("core: chunk replay of trace %q: point %d has bandwidth %v Mbps, and a chunk at it never downloads", tr.Name, i, pt.BandwidthMbps)
				}
			}
		}
	}
	return evaluateABR(video, dataset, p, workers, func(tr *trace.Trace) abr.Link {
		return abr.NewChunkLink(tr, rttS)
	})
}

// evaluateABR is the shared fan-out behind EvaluateABR and
// EvaluateABRChunked, parameterized by the link constructor. Every session
// starts with p.Reset() (inside abr.RunSession) and clones carry no session
// state, so per-trace results do not depend on which worker runs them or in
// what order — the determinism contract the golden tests pin. Each shard is
// contained by par.Run: a corrupted trace or a protocol bug surfaces as a
// *par.PanicError naming the shard instead of taking the process down.
func evaluateABR(video *abr.Video, dataset *trace.Dataset, p abr.Protocol, workers int, mkLink func(*trace.Trace) abr.Link) ([]float64, error) {
	if dataset == nil || len(dataset.Traces) == 0 {
		return nil, fmt.Errorf("core: evaluate %s on empty dataset", p.Name())
	}
	n := len(dataset.Traces)
	workers = min(max(workers, 1), n)
	protos, err := cloneTargets(p, workers)
	if err != nil {
		return nil, fmt.Errorf("core: parallel evaluate: %w", err)
	}
	out := make([]float64, n)
	if err := par.Run(workers, func(w int) error {
		for i := w; i < n; i += workers {
			s := abr.RunSession(video, mkLink(dataset.Traces[i]), abr.DefaultSessionConfig(), protos[w])
			out[i] = s.MeanQoE()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
