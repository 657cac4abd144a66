//go:build !race

package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"advnet/internal/core"
	"advnet/internal/stats"
)

// The paper's claims, one row each. Every row runs its artifact once per
// seed for seeds 1–5 at claimBudget, logs each seed's value, and requires
// its predicate to hold on exactly `holds` of the five seeds. Each
// (seed, Lanes) pair is deterministic (DESIGN.md §8.1), so the count is a
// regression surface: it was measured at this budget, and a change that
// moves it — either way — changes the count here and the "holds on k/5
// seeds" line of EXPERIMENTS.md. A seed is never dropped and a margin never
// loosened to make a row pass.
//
// The file is excluded under -race: training under the detector is 5–10×
// slower, and the concurrency these pipelines use (par.Run lanes and
// evaluation shards) is raced in internal/rl, internal/core and
// internal/par.

// claimBudget is the one budget every claim is asserted at: Fast with fewer
// protocol and adversary iterations, one restart and 20 evaluation traces,
// with Lanes pinned at 2 (results differ between 1 and 2 lanes, and the
// hold counts below were measured at 2).
func claimBudget(seed uint64) Config {
	cfg := Fast()
	cfg.Seed = seed
	cfg.Traces = 20
	cfg.PensieveIters = 20
	cfg.ABRAdvIters = 20
	cfg.CCAdvIters = 30
	cfg.Restarts = 1
	cfg.Lanes = 2
	return cfg
}

// claim is one row of the table.
type claim struct {
	name  string
	train bool // trains an agent: skipped under -short
	holds int  // seeds of 1–5 on which the claim holds at claimBudget
	// check measures one seed and returns the logged value and whether
	// the claim holds on it.
	check func(t *testing.T, seed uint64) (string, bool)
}

var claims = []claim{
	{"table1/actions-inside-ranges", false, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "table1", seed, pure(Table1), func(r Table1Result) error {
			return rendered(r, "6-24 Mbps", "15-60 ms")
		})
		ok := true
		for i, rg := range r.Ranges {
			ok = ok && r.Observed[i][0] >= rg[0]-1e-9 && r.Observed[i][1] <= rg[1]+1e-9
		}
		return fmt.Sprintf("observed %.2f-%.2f Mbps, %.2f-%.2f ms, %.4f-%.4f loss",
			r.Observed[0][0], r.Observed[0][1], r.Observed[1][0], r.Observed[1][1], r.Observed[2][0], r.Observed[2][1]), ok
	}},
	{"fig1a/mpc-below-pensieve-on-mpc-traces", true, 4, func(t *testing.T, seed uint64) (string, bool) {
		mpc, pensieve := fig12Mean(t, seed, 0, "mpc"), fig12Mean(t, seed, 0, "pensieve")
		return fmt.Sprintf("mean QoE mpc %.3f vs pensieve %.3f", mpc, pensieve), mpc < pensieve
	}},
	{"fig1b/pensieve-below-mpc-on-pensieve-traces", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		pensieve, mpc := fig12Mean(t, seed, 1, "pensieve"), fig12Mean(t, seed, 1, "mpc")
		return fmt.Sprintf("mean QoE pensieve %.3f vs mpc %.3f", pensieve, mpc), pensieve < mpc
	}},
	{"fig2/mpc-worse-on-75pct-of-mpc-traces", true, 4, func(t *testing.T, seed uint64) (string, bool) {
		f := fig12(t, seed).PensieveOverMPCOnMPCTraces.FractionTargetWorse
		return fmt.Sprintf("fraction %.2f (want > 0.75)", f), f > 0.75
	}},
	{"fig2/pensieve-worse-on-75pct-of-pensieve-traces", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		f := fig12(t, seed).MPCOverPensieveOnPensieveTraces.FractionTargetWorse
		return fmt.Sprintf("fraction %.2f (want > 0.75)", f), f > 0.75
	}},
	// Fig. 1c's "random traces single out no protocol", paired: on the same
	// protocols and seed, the target is worse on more of its adversarial
	// traces than of the random ones.
	{"fig1c/mpc-targeted-beyond-random", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := fig12(t, seed)
		adv, rnd := r.PensieveOverMPCOnMPCTraces.FractionTargetWorse, r.PensieveOverMPCOnRandom.FractionTargetWorse
		return fmt.Sprintf("mpc worse on %.2f of its traces vs %.2f of random", adv, rnd), adv > rnd
	}},
	{"fig1c/pensieve-targeted-beyond-random", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := fig12(t, seed)
		adv, rnd := r.MPCOverPensieveOnPensieveTraces.FractionTargetWorse, r.MPCOverPensieveOnRandom.FractionTargetWorse
		return fmt.Sprintf("pensieve worse on %.2f of its traces vs %.2f of random", adv, rnd), adv > rnd
	}},
	{"fig3/bb-oscillates-in-band-below-optimum", false, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "fig3", seed, pure(Figure3), func(r *Fig3Result) error {
			if len(r.Times) != len(r.BBKbps) || len(r.BBKbps) != len(r.OptKbps) {
				return fmt.Errorf("series lengths differ")
			}
			return rendered(r, "bitrate selection, BB")
		})
		return fmt.Sprintf("switches BB %d vs optimum %d, in band %.2f, QoE BB %.1f vs optimum %.1f",
				r.BBSwitches, r.OptSwitches, r.InBandFraction, r.BBTotalQoE, r.OptTotalQoE),
			r.BBSwitches >= 2*r.OptSwitches && r.BBSwitches > r.OptSwitches &&
				r.InBandFraction >= 0.7 && r.OptTotalQoE > r.BBTotalQoE
	}},
	{"fig5/learned-adversary-caps-bbr", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := fig56(t, seed)
		return fmt.Sprintf("utilization benign %.2f (want >= 0.85), learned %.2f and scripted %.2f (want <= 0.75)",
			r.BenignUtil, r.MeanUtil, r.ScriptedUtil), r.BenignUtil >= 0.85 && r.MeanUtil <= 0.75 && r.ScriptedUtil <= 0.75
	}},
	{"fig6/actions-move-at-probing-phases", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := fig56(t, seed)
		ratio := safeRatio(r.ProbeActionDelta, r.SteadyActionDelta)
		return fmt.Sprintf("probe/steady action movement %.2fx (want > 1)", ratio), ratio > 1
	}},
	{"fig6/loss-action-near-zero", true, 3, func(t *testing.T, seed uint64) (string, bool) {
		l := fig56(t, seed).MeanDetLoss
		return fmt.Sprintf("mean deterministic loss action %.4f (want < 0.05)", l), l < 0.05
	}},
	{"ablation/smoothing-penalty-smooths-traces", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "smoothing", seed, AblationSmoothing, nil)
		return fmt.Sprintf("smoothness with %.3f vs without %.3f Mbps/step", r.SmoothnessWith, r.SmoothnessWithout),
			r.SmoothnessWith < r.SmoothnessWithout
	}},
	{"ablation/ropt-keeps-optimum-viable", true, 4, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "ropt", seed, AblationOptBaseline, nil)
		return fmt.Sprintf("optimum QoE regret %.3f vs naive %.3f", r.OptQoERegret, r.OptQoENaive),
			r.OptQoERegret > r.OptQoENaive
	}},
	{"ablation/ropt-keeps-headroom", true, 4, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "ropt", seed, AblationOptBaseline, nil)
		return fmt.Sprintf("headroom regret %.3f vs naive %.3f", r.HeadroomRegret, r.HeadroomNaive),
			r.HeadroomRegret > r.HeadroomNaive
	}},
	{"ablation/chunk-replay-exact", false, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "replay", seed, pure(AblationReplayFidelity), nil)
		return fmt.Sprintf("online %.6f, chunk replay %.6f, MPC on the same trace %.3f", r.OnlineQoE, r.ChunkReplayQoE, r.OtherProtocolOn),
			math.Abs(r.OnlineQoE-r.ChunkReplayQoE) <= 1e-9 && r.OtherProtocolOn > r.OnlineQoE
	}},
	{"ablation/online-beats-trace-based", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "online-vs-trace", seed, AblationOnlineVsTraceBased, nil)
		return fmt.Sprintf("BB QoE online %.3f vs trace-based %.3f (random %.3f)", r.OnlineTargetQoE, r.TraceTargetQoE, r.RandomTargetQoE),
			r.OnlineTargetQoE < r.TraceTargetQoE
	}},
	{"extension/routing-spf-above-ecmp-above-oracle", true, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "routing", seed, ExtensionRouting, nil)
		return fmt.Sprintf("MLU SPF %.3f, ECMP %.3f, oracle %.3f", r.SPFMLU, r.ECMPMLU, r.OracleMLU),
			r.SPFMLU > r.ECMPMLU && r.ECMPMLU > r.OracleMLU
	}},
	// §5: fixed traces pass both fixes; the re-run adversary exposes B.
	{"extension/rerun-adversary-catches-broken-fix", false, 5, func(t *testing.T, seed uint64) (string, bool) {
		r := artifact(t, "regression", seed, ExtensionRegression, func(r *RegressionExtensionResult) error {
			return rendered(r, "fix B (band 11-12s)")
		})
		return fmt.Sprintf("suite passes A %v, B %v; re-run QoE A %.3f vs B %.3f (want a gap > 1)",
				r.FixA.Passed, r.FixB.Passed, r.RerunA, r.RerunB),
			r.FixA.Passed && r.FixB.Passed && r.RerunA-r.RerunB > 1
	}},
}

func TestClaims(t *testing.T) {
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			if c.train && testing.Short() {
				t.Skip("training test")
			}
			held := 0
			for seed := uint64(1); seed <= 5; seed++ {
				got, ok := c.check(t, seed)
				verdict := "fails"
				if ok {
					held++
					verdict = "holds"
				}
				t.Logf("seed %d: %s: %s", seed, verdict, got)
			}
			if held != c.holds {
				t.Errorf("holds on %d/5 seeds; measured %d/5 at this budget", held, c.holds)
			}
		})
	}
}

// artifacts memoizes each (artifact, seed) run, so rows that share an
// artifact — Figs. 1 and 2, Figs. 5 and 6, the two r_opt rows — train it
// once per test binary.
var artifacts = map[string]any{}

// artifact returns run's result for seed at claimBudget, running it on
// first use and then checking it with wellFormed (if non-nil).
func artifact[T any](t *testing.T, name string, seed uint64, run func(Config) (T, error), wellFormed func(T) error) T {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, seed)
	if v, ok := artifacts[key]; ok {
		return v.(T)
	}
	v, err := run(claimBudget(seed))
	if err == nil && wellFormed != nil {
		err = wellFormed(v)
	}
	if err != nil {
		t.Fatalf("%s, seed %d: %v", name, seed, err)
	}
	artifacts[key] = v
	return v
}

func pure[T any](f func(Config) T) func(Config) (T, error) {
	return func(c Config) (T, error) { return f(c), nil }
}

func rendered(s fmt.Stringer, want ...string) error {
	out := s.String()
	for _, w := range want {
		if !strings.Contains(out, w) {
			return fmt.Errorf("rendering lacks %q:\n%s", w, out)
		}
	}
	return nil
}

// fig12 checks that every protocol has one finite QoE per trace of every set.
func fig12(t *testing.T, seed uint64) *Fig12Result {
	return artifact(t, "fig12", seed, Figure1And2, func(r *Fig12Result) error {
		if len(r.Sets) != 3 {
			return fmt.Errorf("%d trace sets, want 3", len(r.Sets))
		}
		for _, set := range r.Sets {
			for name, q := range set.QoE {
				if len(q) != claimBudget(seed).Traces {
					return fmt.Errorf("%s/%s has %d values", set.TraceSet, name, len(q))
				}
				for _, v := range q {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("%s/%s QoE %v", set.TraceSet, name, v)
					}
				}
			}
		}
		return rendered(r, "Figure 2")
	})
}

// fig12Mean is protocol's mean QoE on trace set i (0 MPC-targeted,
// 1 Pensieve-targeted, 2 random).
func fig12Mean(t *testing.T, seed uint64, i int, protocol string) float64 {
	return stats.Mean(fig12(t, seed).Sets[i].QoE[protocol])
}

// fig56 checks that the deterministic series exist and that every action
// the adversary took, with or without noise, is inside Table 1.
func fig56(t *testing.T, seed uint64) *Fig56Result {
	return artifact(t, "fig56", seed, Figure5And6, func(r *Fig56Result) error {
		if len(r.DetBandwidth) == 0 || len(r.DetBandwidth) != len(r.DetLatency) || len(r.DetLatency) != len(r.DetLoss) {
			return fmt.Errorf("deterministic series missing or ragged")
		}
		rg := core.DefaultCCAdversaryConfig().Ranges()
		for _, s := range []struct {
			xs []float64
			rg [2]float64
		}{{r.DetBandwidth, rg[0]}, {r.DetLatency, rg[1]}, {r.DetLoss, rg[2]}, {r.BandwidthMbps, rg[0]}} {
			for _, v := range s.xs {
				if v < s.rg[0]-1e-9 || v > s.rg[1]+1e-9 {
					return fmt.Errorf("action %v outside Table 1 range %v", v, s.rg)
				}
			}
		}
		return rendered(r, "Figure 5", "Figure 6")
	})
}
