// Command advtrain trains an RL adversary against a protocol and writes the
// trained policy (and optionally a dataset of adversarial traces) to disk.
//
// Usage:
//
//	advtrain -domain abr -target bb|mpc|rate|bola -o adversary.json [-traces-out traces.json -n 50]
//	advtrain -domain abr -target pensieve -pretrain-iters 20 -lanes 4 -o adversary.json
//	advtrain -domain cc  -target bbr|cubic|reno|copa|vivace|htcp -o adversary.json
//
// The pensieve target is trained from scratch on a synthetic FCC-like corpus
// before the adversary attacks it; with -lanes L > 1, lane l streams traces
// l, l+L, … of that corpus. The adversary environments themselves are
// dataset-free (the adversary emits the bandwidths). The lane count is part
// of a run's identity; GOMAXPROCS changes only its speed.
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
	"advnet/internal/rl"
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
	lanes := flag.Int("lanes", 1, "rollout lanes of every training (1 = one lane); with L lanes the pensieve target's lane l streams traces l, l+L, … of its corpus. The trained models depend on the lane count, not on GOMAXPROCS")
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
	opt.Lanes = *lanes
	opt.Checkpoint = ckpt

	rng := mathx.NewRNG(*seed)
	switch *domain {
	case "abr":
		video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
		var proto abr.Protocol
		if *target == "pensieve" {
			corpus := trace.GenerateFCCLikeDataset(rng.Split(), trace.DefaultFCCLike(), 40, "fcc")
			log.Printf("pretraining pensieve target on %d traces (%d lanes, %d iterations)...",
				len(corpus.Traces), *lanes, *pretrainIters)
			ppo, _, err := rl.Train(abr.PensieveProblem(video, corpus, 0.08), rl.TrainOptions{Iterations: *pretrainIters, Lanes: *lanes}, rng.Split())
			if err != nil {
				log.Fatal(err)
			}
			proto = abr.NewPensieve(ppo.Policy.(*rl.CategoricalPolicy))
		} else if proto, err = abr.New(*target); err != nil {
			log.Fatal(err)
		}
		log.Printf("training ABR adversary against %s for %d iterations (%d lanes)...", proto.Name(), opt.Iterations, *lanes)
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
		log.Printf("training CC adversary against %s for %d iterations (%d lanes)...", *target, opt.Iterations, *lanes)
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
