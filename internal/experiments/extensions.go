package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/routing"
	"advnet/internal/trace"
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
	opt := core.TrainOptions{Iterations: iters, RolloutSteps: 512, LR: 1e-3, Lanes: cfg.Lanes}
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

// RegressionExtensionResult is §5's "guiding protocol development" workflow
// on BB. A developer widens BB's decision band to fix the oscillation
// Figure 3 exposes (fix A). A suite of recorded adversarial traces passes
// fix A — and also a broken hair-trigger band (fix B) that the recorded
// traces happen to sidestep. Re-running the adversary against each fix,
// aimed at fix B's band, tells the two apart.
type RegressionExtensionResult struct {
	Traces          int     // recorded attack traces in the suite
	BaselineMeanQoE float64 // BB on the recorded traces
	BaselineP5QoE   float64
	FixA, FixB      core.RegressionResult // fixed-trace suite verdicts
	RerunA, RerunB  float64               // mean QoE under the re-run adversary
}

// ExtensionRegression records a fixed-trace regression suite for BB from a
// family of scripted buffer pinners, checks both candidate fixes against it,
// and then re-runs a pinner aimed at fix B's band against each fix.
func ExtensionRegression(cfg Config) (*RegressionExtensionResult, error) {
	video := cfg.video()
	var traces []*trace.Trace
	for i := 0; i < 10; i++ {
		pinner := core.NewBBBufferPinner()
		pinner.BandLoS += 0.1 * float64(i) // a small family of attacks
		_, tr := core.RunScriptedABR(video, abr.NewBB(), pinner, cfg.RTTSeconds, fmt.Sprintf("attack-%d", i))
		traces = append(traces, tr)
	}
	suite, err := core.NewABRRegressionSuite(video, abr.NewBB(),
		&trace.Dataset{Name: "bb-attacks", Traces: traces}, cfg.RTTSeconds, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	res := &RegressionExtensionResult{
		Traces:          len(traces),
		BaselineMeanQoE: suite.BaselineMeanQoE,
		BaselineP5QoE:   suite.BaselineP5QoE,
	}
	fixA := &abr.BB{ReservoirS: 8, CushionS: 14} // band 8-22 s
	fixB := &abr.BB{ReservoirS: 11, CushionS: 1} // band 11-12 s
	if res.FixA, err = suite.Check(video, fixA, 0.05, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	if res.FixB, err = suite.Check(video, fixB, 0.05, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	rerun := core.NewBBBufferPinner()
	rerun.BandLoS, rerun.BandHiS = 11.1, 11.9
	sessionA, _ := core.RunScriptedABR(video, fixA, rerun, cfg.RTTSeconds, "rerun-vs-A")
	sessionB, _ := core.RunScriptedABR(video, fixB, rerun, cfg.RTTSeconds, "rerun-vs-B")
	res.RerunA, res.RerunB = sessionA.MeanQoE(), sessionB.MeanQoE()
	return res, nil
}

// String renders the regression extension result.
func (r *RegressionExtensionResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: adversarial regression suite for BB (§5)\n")
	fmt.Fprintf(&b, "  baseline BB: mean QoE %.3f, p5 %.3f on %d recorded adversarial traces\n",
		r.BaselineMeanQoE, r.BaselineP5QoE, r.Traces)
	for _, f := range []struct {
		label string
		c     core.RegressionResult
	}{{"fix A (band 8-22s):", r.FixA}, {"fix B (band 11-12s):", r.FixB}} {
		fmt.Fprintf(&b, "  %-20s mean QoE %.3f (%+.3f)  p5 %.3f  -> pass=%v\n",
			f.label, f.c.MeanQoE, f.c.MeanDelta, f.c.P5QoE, f.c.Passed)
	}
	fmt.Fprintf(&b, "  re-run adversary against fix A: mean QoE %.3f\n", r.RerunA)
	fmt.Fprintf(&b, "  re-run adversary against fix B: mean QoE %.3f\n", r.RerunB)
	return b.String()
}
