// Command robustify runs the §2.3 pipeline end to end: train a Pensieve-style
// agent on a dataset, train an adversary against it, inject the adversarial
// traces, finish training, and write the resulting policy (and the
// adversarial traces) to disk.
//
// Usage:
//
//	robustify -traces train.json -o pensieve.json [-inject 0.9] [-iters 60]
//	robustify -generate fcc -o pensieve.json       # synthesize the dataset
package main

import (
	"flag"
	"log"
	"runtime"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	tracesPath := flag.String("traces", "", "JSON training dataset")
	generate := flag.String("generate", "", "synthesize the dataset instead: fcc or 3g")
	out := flag.String("o", "pensieve.json", "output path for the trained policy network (an rl policy envelope, as serve -policy reads)")
	advOut := flag.String("adv-traces-out", "", "also write the generated adversarial traces here")
	inject := flag.Float64("inject", 0.9, "fraction of training after which to inject (>=1 disables)")
	iters := flag.Int("iters", 60, "total protocol PPO iterations")
	advIters := flag.Int("adv-iters", 80, "adversary PPO iterations")
	nTraces := flag.Int("n", 25, "adversarial traces to inject")
	seed := flag.Uint64("seed", 1, "training seed")
	lanes := flag.Int("lanes", 1, "rollout lanes for both the protocol and the adversary (1 = one lane); with L lanes the protocol's lane l streams traces l, l+L, … of the training dataset in deterministic epoch-reshuffled order. The trained policy depends on the lane count, not on GOMAXPROCS")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic crash-safe training checkpoints (empty = disabled)")
	ckptEvery := flag.Int("checkpoint-every", 1, "save a checkpoint every N protocol-training iterations")
	resume := flag.Bool("resume", false, "continue from the checkpoints in -checkpoint-dir (required when it is not empty)")
	flag.Parse()

	ckpt, err := core.ResolveCheckpoint(*ckptDir, *ckptEvery, *resume)
	if err != nil {
		log.Fatal(err)
	}

	var ds *trace.Dataset
	rng := mathx.NewRNG(*seed)
	switch {
	case *tracesPath != "":
		ds, err = trace.LoadJSON(*tracesPath)
		if err != nil {
			log.Fatal(err)
		}
	case *generate == "fcc":
		ds = trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 40, "fcc")
	case *generate == "3g":
		ds = trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), 40, "3g")
	default:
		log.Fatal("need -traces FILE or -generate fcc|3g")
	}

	video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
	cfg := core.DefaultRobustTrainConfig()
	cfg.TotalIterations = *iters
	cfg.InjectAtFrac = *inject
	cfg.AdversarialTraces = *nTraces
	cfg.AdvOpt = core.TrainOptions{Iterations: *advIters, RolloutSteps: 1536, LR: 1e-3, Lanes: *lanes}
	cfg.Workers = *lanes
	cfg.Checkpoint = ckpt

	log.Printf("training on %q (%d traces), injecting at %.0f%%, %d lanes...", ds.Name, len(ds.Traces), 100**inject, *lanes)
	res, err := core.TrainRobustPensieve(video, ds, cfg, rng.Split())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("phase 1: %d iterations, phase 2: %d iterations", res.Phase1Iterations, res.Phase2Iterations)

	if err := rl.SavePolicyNet(*out, res.Protocol.Policy.Net()); err != nil {
		log.Fatal(err)
	}
	log.Printf("policy written to %s", *out)
	if *advOut != "" && res.AdversarialTraces != nil {
		if err := res.AdversarialTraces.SaveJSON(*advOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d adversarial traces written to %s", len(res.AdversarialTraces.Traces), *advOut)
	}

	// Quick self-evaluation on the training distribution.
	q, err := core.EvaluateABR(video, ds, res.Protocol, cfg.RTTSeconds, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	var mean float64
	for _, v := range q {
		mean += v
	}
	log.Printf("mean QoE on the training dataset: %.3f", mean/float64(len(q)))
}
