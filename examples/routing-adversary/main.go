// Routing adversary walkthrough: the framework transposed to the third
// domain the paper motivates (§1, §2.3, §5 — routing).
//
// The adversary controls the demand matrix offered to a routing scheme on
// the Abilene backbone and is rewarded, exactly in the shape of Eq. 1, by
// the gap between the scheme's max link utilization and what congestion-
// optimal routing would achieve on the same demands. Trained against plain
// shortest-path routing (SPF), it learns demand patterns that pile onto
// SPF's single paths while leaving plenty of spare capacity an optimal
// scheme — or even ECMP — would use.
//
// Run it with:
//
//	go run ./examples/routing-adversary [-iters N]
package main

import (
	"flag"
	"fmt"

	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/routing"
)

func main() {
	iters := flag.Int("iters", 20, "adversary PPO iterations")
	flag.Parse()

	top := routing.Abilene()
	pairs := [][2]int{{0, 10}, {1, 9}, {2, 8}, {0, 5}, {4, 10}, {3, 7}}
	cfg := core.DefaultRoutingAdversaryConfig(pairs)

	fmt.Printf("topology: Abilene (%d nodes, %d directed links)\n", top.N, len(top.Edges))
	fmt.Printf("adversary controls %d commodities, rate 0-%.1f each\n\n", len(pairs), cfg.MaxRate)

	fmt.Println("training adversary against SPF...")
	opt := core.TrainOptions{Iterations: *iters, RolloutSteps: 512, LR: 1e-3}
	adv, stats, err := core.TrainRoutingAdversary(top, routing.SPF{}, cfg, opt, mathx.NewRNG(7))
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean MLU gap per round: %.3f -> %.3f\n\n",
		stats[0].MeanStepRew, stats[len(stats)-1].MeanStepRew)

	demands := adv.GenerateDemands(top, routing.SPF{})
	oracle := routing.NewOracle()
	var spf, ecmp, opt2 float64
	for _, d := range demands {
		spf += routing.MLU(top, routing.SPF{}.Route(top, d))
		ecmp += routing.MLU(top, routing.ECMP{}.Route(top, d))
		opt2 += routing.MLU(top, oracle.Route(top, d))
	}
	n := float64(len(demands))
	fmt.Printf("on the adversary's deterministic demand matrices (mean MLU):\n")
	fmt.Printf("  SPF (target):     %.3f\n", spf/n)
	fmt.Printf("  ECMP:             %.3f\n", ecmp/n)
	fmt.Printf("  optimal routing:  %.3f\n", opt2/n)
	fmt.Println("\nThe target is singled out: the same demands that congest SPF are\n" +
		"entirely servable — the paper's definition of a meaningful example.")
}
