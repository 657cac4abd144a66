// Command advtrain trains an RL adversary against a protocol and writes the
// trained policy (and optionally a dataset of adversarial traces) to disk.
//
// Usage:
//
//	advtrain -domain abr -target bb|mpc|rate|bola -o adversary.json [-traces-out traces.json -n 50]
//	advtrain -domain abr -target pensieve -pretrain-iters 20 -workers 4 -o adversary.json
//	advtrain -domain cc  -target bbr|cubic|reno -o adversary.json
//
// The pensieve target is trained from scratch on a synthetic FCC-like corpus
// before the adversary attacks it; with -workers > 1 worker w streams shard w
// of that corpus. The adversary environments themselves are dataset-free (the
// adversary emits the bandwidths).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/netem"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	domain := flag.String("domain", "abr", "abr or cc")
	target := flag.String("target", "bb", "abr: bb|mpc|rate|bola|pensieve; cc: bbr|cubic|reno|copa|vivace|htcp")
	out := flag.String("o", "adversary.json", "output path for the trained adversary")
	tracesOut := flag.String("traces-out", "", "also generate adversarial traces to this path (abr only)")
	n := flag.Int("n", 50, "number of traces to generate with -traces-out")
	iters := flag.Int("iters", 0, "PPO iterations (0 = domain default)")
	seed := flag.Uint64("seed", 1, "training seed")
	workers := flag.Int("workers", 1, "parallel rollout workers (1 = historical single-threaded path)")
	pretrainIters := flag.Int("pretrain-iters", 20, "PPO iterations for pretraining the pensieve target")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic crash-safe training checkpoints (empty = disabled)")
	ckptEvery := flag.Int("checkpoint-every", 1, "save a checkpoint every N training iterations")
	resume := flag.Bool("resume", false, "continue from the checkpoints in -checkpoint-dir (required when it is not empty)")
	benchJSON := flag.String("bench-json", "", "write a BENCH_train.json telemetry report here (unified schema, DESIGN.md §8.6)")
	flag.Parse()

	ckpt, err := core.ResolveCheckpoint(*ckptDir, *ckptEvery, *resume)
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry is opt-in: with no -bench-json the trainers run with a nil
	// metrics hook, the historical zero-overhead path.
	var reg *metrics.Registry
	var tm *rl.TrainMetrics
	if *benchJSON != "" {
		reg = metrics.NewRegistry("train")
		tm = rl.NewTrainMetrics(reg)
		reg.SetConfig("domain", *domain)
		reg.SetConfig("target", *target)
		reg.SetConfig("seed", *seed)
		reg.SetConfig("workers", *workers)
	}

	// The domain supplies the defaults; the flags fill the rest, once.
	opt := core.DefaultABRTrainOptions()
	if *domain == "cc" {
		opt = core.DefaultCCTrainOptions()
	}
	if *iters > 0 {
		opt.Iterations = *iters
	}
	opt.Workers = *workers
	opt.Checkpoint = ckpt
	opt.Metrics = tm

	rng := mathx.NewRNG(*seed)
	switch *domain {
	case "abr":
		video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
		var proto abr.Protocol
		switch *target {
		case "bb":
			proto = abr.NewBB()
		case "mpc":
			proto = abr.NewMPC()
		case "rate":
			proto = abr.NewRateBased()
		case "bola":
			proto = abr.NewBOLA()
		case "pensieve":
			corpus := trace.GenerateFCCLikeDataset(rng.Split(), trace.DefaultFCCLike(), 40, "fcc")
			log.Printf("pretraining pensieve target on %d traces (%d workers, %d iterations)...",
				len(corpus.Traces), *workers, *pretrainIters)
			agent, _, err := abr.TrainPensieveSharded(video, corpus, *pretrainIters, *workers, rng.Split())
			if err != nil {
				log.Fatal(err)
			}
			proto = agent
		default:
			log.Fatalf("unknown abr target %q", *target)
		}
		log.Printf("training ABR adversary against %s for %d iterations (%d workers)...", proto.Name(), opt.Iterations, *workers)
		t0 := time.Now()
		adv, stats, err := core.TrainABRAdversary(video, proto, core.DefaultABRAdversaryConfig(), opt, rng)
		if err != nil {
			log.Fatal(err)
		}
		writeTrainReport(reg, *benchJSON, stats, time.Since(t0), "ep_reward", func(s rl.IterStats) float64 { return s.MeanEpReward })
		log.Printf("episode reward: %.1f -> %.1f", stats[0].MeanEpReward, stats[len(stats)-1].MeanEpReward)
		if err := adv.Save(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("adversary written to %s", *out)
		if *tracesOut != "" {
			d := adv.GenerateTraces(video, proto, rng.Split(), *n, "adv-"+proto.Name())
			if err := d.SaveJSON(*tracesOut); err != nil {
				log.Fatal(err)
			}
			log.Printf("%d traces written to %s", *n, *tracesOut)
		}

	case "cc":
		var newCC func() netem.CongestionController
		switch *target {
		case "bbr":
			newCC = func() netem.CongestionController { return cc.NewBBR() }
		case "cubic":
			newCC = func() netem.CongestionController { return cc.NewCubic() }
		case "reno":
			newCC = func() netem.CongestionController { return cc.NewReno() }
		case "copa":
			newCC = func() netem.CongestionController { return cc.NewCopa() }
		case "vivace":
			newCC = func() netem.CongestionController { return cc.NewVivace() }
		case "htcp":
			newCC = func() netem.CongestionController { return cc.NewHTCP() }
		default:
			log.Fatalf("unknown cc target %q", *target)
		}
		log.Printf("training CC adversary against %s for %d iterations (%d workers)...", *target, opt.Iterations, *workers)
		t0 := time.Now()
		adv, stats, err := core.TrainCCAdversary(newCC, core.DefaultCCAdversaryConfig(), opt, rng)
		if err != nil {
			log.Fatal(err)
		}
		writeTrainReport(reg, *benchJSON, stats, time.Since(t0), "step_reward", func(s rl.IterStats) float64 { return s.MeanStepRew })
		log.Printf("step reward: %.3f -> %.3f", stats[0].MeanStepRew, stats[len(stats)-1].MeanStepRew)
		if err := adv.Save(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("adversary written to %s", *out)

	default:
		fmt.Fprintf(os.Stderr, "unknown domain %q\n", *domain)
		flag.Usage()
		os.Exit(2)
	}
}

// writeTrainReport finishes the BENCH_train.json report: run-level scalars
// (iters/s is the regression-gated headline; rollout_s/update_s timers and
// the iteration counter were observed live by the trainer), the learning
// trajectory as a reward series indexed by iteration, and the final reward.
// A nil reg (no -bench-json) is a no-op.
func writeTrainReport(reg *metrics.Registry, path string, stats []rl.IterStats, wall time.Duration, rewardName string, reward func(rl.IterStats) float64) {
	if reg == nil {
		return
	}
	reg.SetConfig("iterations", len(stats))
	reg.SetMetric("wall_seconds", wall.Seconds(), metrics.Info("s"))
	if wall > 0 {
		reg.SetMetric("iters_per_sec", float64(len(stats))/wall.Seconds(), metrics.HigherIsBetter("iters/s"))
	}
	if len(stats) > 0 {
		reg.SetMetric("final_"+rewardName, reward(stats[len(stats)-1]), metrics.Info("reward"))
		ser := reg.Series(rewardName, 1, metrics.Info("reward"))
		for _, s := range stats {
			ser.Append(float64(s.Iteration), reward(s))
		}
	}
	if err := reg.WriteJSON(path); err != nil {
		log.Fatal(err)
	}
	log.Printf("telemetry written to %s", path)
}
