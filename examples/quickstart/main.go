// Quickstart: find network conditions where a protocol performs far from
// optimally, in under a minute.
//
// This example trains a small RL adversary against the buffer-based (BB)
// streaming protocol, generates an adversarial bandwidth trace, and shows
// the gap between what BB achieved on that trace and what an offline-optimal
// controller would have achieved — the paper's definition of a *meaningful*
// adversarial example (bad for the protocol, good conditions objectively).
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
)

func main() {
	rng := mathx.NewRNG(42)
	video := abr.NewVideo(rng, abr.DefaultVideoConfig())
	target := abr.NewBB()

	// 1. Train the adversary: it controls the link bandwidth (0.8-4.8
	//    Mbps, one choice per video chunk) and is rewarded by Eq. 1:
	//    r_opt - r_protocol - p_smoothing.
	fmt.Println("training adversary against BB (a few seconds)...")
	cfg := core.DefaultABRAdversaryConfig()
	opt := core.TrainOptions{Iterations: 20, RolloutSteps: 1024, LR: 1e-3}
	adv, stats, err := core.TrainABRAdversary(video, target, cfg, opt, rng)
	if err != nil {
		panic(err)
	}
	fmt.Printf("adversary reward: %.1f -> %.1f\n",
		stats[0].MeanEpReward, stats[len(stats)-1].MeanEpReward)

	// 2. Generate an adversarial trace (deterministic policy).
	tr := adv.GenerateTrace(video, target, rng, false, "quickstart-adv")

	// 3. Replay it against BB and compare with the offline optimum.
	session := abr.RunSession(video, abr.NewChunkLink(tr, 0.08),
		abr.DefaultSessionConfig(), target)
	oracle := abr.NewOfflineOptimal()
	oracle.RTTSeconds = 0.08
	_, optQoE := oracle.Solve(video, tr.Bandwidths())

	fmt.Printf("\nadversarial trace (%d chunks, mean bandwidth %.2f Mbps):\n",
		len(tr.Points), tr.MeanBandwidth())
	fmt.Printf("  BB per-chunk QoE:      %7.3f\n", session.MeanQoE())
	fmt.Printf("  optimal per-chunk QoE: %7.3f\n", optQoE/float64(video.NumChunks()))
	fmt.Printf("  headroom (regret):     %7.3f  <- the adversary's objective\n",
		optQoE/float64(video.NumChunks())-session.MeanQoE())
}
