package experiments

import (
	"fmt"

	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/routing"
)

// RoutingExtensionResult is the Eq.-1-transposed routing experiment: a
// demand-matrix adversary trained against shortest-path routing, scored by
// max link utilization against the congestion-optimal oracle.
type RoutingExtensionResult struct {
	SPFMLU    float64 // target scheme on the adversary's demands
	ECMPMLU   float64 // the "other protocol"
	OracleMLU float64 // optimal routing (r_opt)
	TrainGain float64 // adversary reward, first -> last iteration
}

// ExtensionRouting trains the routing adversary on Abilene against SPF and
// evaluates all schemes on its deterministic demand matrices.
func ExtensionRouting(cfg Config) (*RoutingExtensionResult, error) {
	top := routing.Abilene()
	pairs := [][2]int{{0, 10}, {1, 9}, {2, 8}, {0, 5}, {4, 10}, {3, 7}}
	acfg := core.DefaultRoutingAdversaryConfig(pairs)

	iters := cfg.ABRAdvIters / 4
	if iters < 10 {
		iters = 10
	}
	opt := core.TrainOptions{Iterations: iters, RolloutSteps: 512, LR: 1e-3, Workers: cfg.Workers}
	adv, stats, err := core.TrainRoutingAdversary(top, routing.SPF{}, acfg, opt, mathx.NewRNG(cfg.Seed+900))
	if err != nil {
		return nil, err
	}
	res := &RoutingExtensionResult{
		TrainGain: stats[len(stats)-1].MeanStepRew - stats[0].MeanStepRew,
	}
	oracle := routing.NewOracle()
	demands := adv.GenerateDemands(top, routing.SPF{})
	for _, d := range demands {
		res.SPFMLU += routing.MLU(top, routing.SPF{}.Route(top, d))
		res.ECMPMLU += routing.MLU(top, routing.ECMP{}.Route(top, d))
		res.OracleMLU += routing.MLU(top, oracle.Route(top, d))
	}
	n := float64(len(demands))
	res.SPFMLU /= n
	res.ECMPMLU /= n
	res.OracleMLU /= n
	return res, nil
}

// String renders the routing extension result.
func (r *RoutingExtensionResult) String() string {
	return fmt.Sprintf(
		"Extension: routing-domain adversary (Abilene, demands vs SPF)\n"+
			"  mean MLU on adversarial demands: SPF %.3f | ECMP %.3f | optimal %.3f\n"+
			"  adversary reward gain over training: %+.3f\n",
		r.SPFMLU, r.ECMPMLU, r.OracleMLU, r.TrainGain)
}
