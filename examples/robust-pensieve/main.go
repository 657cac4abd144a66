// Robust Pensieve walkthrough: reproduce the §2.3/§3.3 training pipeline.
//
// Trains a Pensieve-style agent on a synthetic broadband dataset twice: once
// normally, and once pausing at 70% of the budget to train an adversary
// against the partially-trained agent, generate adversarial traces, and
// finish training with them mixed into the dataset. Both variants are then
// evaluated on broadband and 3G test sets — the Figure 4 comparison.
//
// Run it with:
//
//	go run ./examples/robust-pensieve [-iters N]
//
// Expect a few minutes at the default budget; the gains concentrate in the
// 3G transfer row and the 5th percentile, so small budgets can be noisy.
package main

import (
	"flag"
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

func main() {
	iters := flag.Int("iters", 60, "total Pensieve PPO iterations")
	flag.Parse()

	rng := mathx.NewRNG(5)
	video := abr.NewVideo(rng, abr.DefaultVideoConfig())

	fccTrain := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 40, "fcc-train")
	fccTest := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 40, "fcc-test")
	g3Test := trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), 40, "3g-test")

	train := func(frac float64) *abr.Pensieve {
		cfg := core.DefaultRobustTrainConfig()
		cfg.TotalIterations = *iters
		cfg.InjectAtFrac = frac
		cfg.AdversarialTraces = 25
		cfg.AdvOpt = core.TrainOptions{Iterations: 80, RolloutSteps: 1536, LR: 1e-3, Restarts: 2}
		res, err := core.TrainRobustPensieve(video, fccTrain, cfg, mathx.NewRNG(6))
		if err != nil {
			panic(err)
		}
		if res.Adversary != nil {
			fmt.Printf("  injected %d adversarial traces after %d/%d iterations\n",
				len(res.AdversarialTraces.Traces), res.Phase1Iterations, *iters)
		}
		return res.Protocol
	}

	fmt.Println("training pensieve without adversarial traces...")
	plain := train(1.0)
	fmt.Println("training pensieve with adversarial traces at 70%...")
	robust := train(0.7)

	report := func(name string, ds *trace.Dataset) {
		p, err := core.EvaluateABR(video, ds, plain, 0.08, 1)
		if err != nil {
			panic(err)
		}
		r, err := core.EvaluateABR(video, ds, robust, 0.08, 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s  plain: mean %6.3f / p5 %6.3f    robust: mean %6.3f / p5 %6.3f\n",
			name, stats.Mean(p), stats.Percentile(p, 5), stats.Mean(r), stats.Percentile(r, 5))
	}
	fmt.Println()
	report("broadband test set", fccTest)
	report("3G test set", g3Test)
	fmt.Println("\nThe paper's Figure 4: adversarial training helps most at the " +
		"5th percentile and on the broadband->3G transfer.")
}
