// ABR adversary walkthrough: reproduce the §3 experiment end to end.
//
// Trains an adversary against MPC, generates a set of adversarial traces,
// and evaluates MPC, a Pensieve-style RL agent, and buffer-based (BB) on
// them — showing that the adversary singles out its target (the Figure 1a
// shape) rather than making the network hostile for everyone.
//
// Run it with:
//
//	go run ./examples/abr-adversary [-traces N] [-iters N]
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
	nTraces := flag.Int("traces", 30, "adversarial traces to generate")
	iters := flag.Int("iters", 40, "adversary PPO iterations")
	flag.Parse()

	rng := mathx.NewRNG(7)
	video := abr.NewVideo(rng, abr.DefaultVideoConfig())

	// Train a Pensieve-style agent to compare against (the paper uses the
	// authors' pre-trained model; we train our own on random traces over
	// the same 0.8-4.8 Mbps conditions).
	fmt.Println("training pensieve (background protocol)...")
	rcfg := trace.RandomConfig{Points: 48, Duration: 4, BandwidthLo: 0.8, BandwidthHi: 4.8, LatencyLo: 40}
	ds := trace.GenerateRandomDataset(rng, rcfg, 40, "rand")
	pensieve, _, err := abr.TrainPensieve(video, ds, 40, rng.Split())
	if err != nil {
		panic(err)
	}

	mpc := abr.NewMPC()
	bb := abr.NewBB()

	fmt.Println("training adversary against MPC...")
	acfg := core.DefaultABRAdversaryConfig()
	opt := core.TrainOptions{Iterations: *iters, RolloutSteps: 1536, LR: 1e-3}
	adv, _, err := core.TrainABRAdversary(video, mpc, acfg, opt, mathx.NewRNG(9))
	if err != nil {
		panic(err)
	}

	fmt.Printf("generating %d adversarial traces...\n\n", *nTraces)
	advTraces := adv.GenerateTraces(video, mpc, mathx.NewRNG(10), *nTraces, "adv-mpc")

	report := func(label string, d *trace.Dataset) {
		fmt.Printf("%s:\n", label)
		for _, p := range []abr.Protocol{pensieve, mpc, bb} {
			q, err := core.EvaluateABRChunked(video, d, p, 0.08, 1)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-9s mean QoE %6.3f   p5 %6.3f\n",
				p.Name(), stats.Mean(q), stats.Percentile(q, 5))
		}
	}
	report("QoE on traces targeting MPC", advTraces)
	random := trace.GenerateRandomDataset(mathx.NewRNG(11), rcfg, *nTraces, "random")
	report("\nQoE on random traces (baseline)", random)

	fmt.Println("\nNote how MPC drops below the others only on its own " +
		"adversarial traces: the adversary found targeted, non-trivial weaknesses.")
}
