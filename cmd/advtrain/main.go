// Command advtrain trains an RL adversary against a protocol and writes the
// trained policy (and optionally a dataset of adversarial traces) to disk.
//
// Usage:
//
//	advtrain -domain abr -target bb|mpc|rate|bola -o adversary.json [-traces-out traces.json -n 50]
//	advtrain -domain abr -target pensieve -pretrain-iters 20 -workers 4 -o adversary.json
//	advtrain -domain cc  -target bbr|cubic|reno|copa|vivace|htcp -o adversary.json
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

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	domain := flag.String("domain", "abr", "abr or cc")
	target := flag.String("target", "bb", "abr: "+abr.Names()+"|pensieve; cc: "+cc.Names())
	out := flag.String("o", "adversary.json", "output path for the trained adversary")
	tracesOut := flag.String("traces-out", "", "also generate adversarial traces to this path (abr only)")
	n := flag.Int("n", 50, "number of traces to generate with -traces-out")
	iters := flag.Int("iters", 0, "PPO iterations (0 = domain default)")
	seed := flag.Uint64("seed", 1, "training seed")
	workers := flag.Int("workers", 1, "parallel rollout workers (1 = one lane, the historical path); each worker is one rollout lane, so the trained adversary depends on the worker count")
	pretrainIters := flag.Int("pretrain-iters", 20, "PPO iterations for pretraining the pensieve target")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic crash-safe training checkpoints (empty = disabled)")
	ckptEvery := flag.Int("checkpoint-every", 1, "save a checkpoint every N training iterations")
	resume := flag.Bool("resume", false, "continue from the checkpoints in -checkpoint-dir (required when it is not empty)")
	flag.Parse()

	ckpt, err := core.ResolveCheckpoint(*ckptDir, *ckptEvery, *resume)
	if err != nil {
		log.Fatal(err)
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

	rng := mathx.NewRNG(*seed)
	switch *domain {
	case "abr":
		video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
		var proto abr.Protocol
		if *target == "pensieve" {
			corpus := trace.GenerateFCCLikeDataset(rng.Split(), trace.DefaultFCCLike(), 40, "fcc")
			log.Printf("pretraining pensieve target on %d traces (%d workers, %d iterations)...",
				len(corpus.Traces), *workers, *pretrainIters)
			agent, _, err := abr.TrainPensieveSharded(video, corpus, *pretrainIters, *workers, rng.Split())
			if err != nil {
				log.Fatal(err)
			}
			proto = agent
		} else if proto, err = abr.New(*target); err != nil {
			log.Fatal(err)
		}
		log.Printf("training ABR adversary against %s for %d iterations (%d workers)...", proto.Name(), opt.Iterations, *workers)
		adv, stats, err := core.TrainABRAdversary(video, proto, core.DefaultABRAdversaryConfig(), opt, rng)
		if err != nil {
			log.Fatal(err)
		}
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
		if _, err := cc.New(*target); err != nil {
			log.Fatal(err)
		}
		newCC := func() netem.CongestionController { c, _ := cc.New(*target); return c }
		log.Printf("training CC adversary against %s for %d iterations (%d workers)...", *target, opt.Iterations, *workers)
		adv, stats, err := core.TrainCCAdversary(newCC, core.DefaultCCAdversaryConfig(), opt, rng)
		if err != nil {
			log.Fatal(err)
		}
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
