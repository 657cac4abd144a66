package experiments

import (
	"math"
	"strings"
	"testing"

	"advnet/internal/core"
)

// The paper's claims are asserted in claims_test.go. This file keeps what is
// not yet a claim: Figure 4 runs end to end at a budget small enough for a
// unit test, and every result type renders.

func TestFigure4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	res, err := Figure4(Config{
		Seed:          1,
		Traces:        6,
		PensieveIters: 3,
		ABRAdvIters:   3,
		RobustIters:   4,
		RobustTraces:  3,
		DatasetSize:   6,
		Restarts:      1,
		Fig4Seeds:     1,
		RTTSeconds:    0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		for _, v := range []float64{c.MeanNoAdv, c.MeanAdv90, c.MeanAdv70, c.P5NoAdv, c.P5Adv90, c.P5Adv70} {
			if math.IsNaN(v) {
				t.Fatalf("NaN in cell %+v", c)
			}
		}
	}
	if !strings.Contains(res.String(), "adv@90%") {
		t.Fatal("rendering incomplete")
	}
}

func TestResultRenderings(t *testing.T) {
	// Every result type must render its figure label and key fields.
	fig4 := &Fig4Result{Cells: []Fig4Cell{{Train: "broadband", Test: "3g", MeanNoAdv: 1, P5NoAdv: -1}}}
	if out := fig4.String(); !strings.Contains(out, "broadband") || !strings.Contains(out, "Figure 4") {
		t.Fatalf("Fig4 rendering:\n%s", out)
	}
	fig56 := &Fig56Result{
		MeanUtil: 0.3, BenignUtil: 0.95, ScriptedUtil: 0.6,
		ThroughputMbps: []float64{1, 2}, BandwidthMbps: []float64{10, 12},
		DetBandwidth: []float64{10}, DetLatency: []float64{20}, DetLoss: []float64{0},
		ProbeActionDelta: 0.04, SteadyActionDelta: 0.02, MeanDetLoss: 0.01,
	}
	if out := fig56.String(); !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Figure 6") ||
		!strings.Contains(out, "scripted probe attacker: 60%") {
		t.Fatalf("Fig56 rendering:\n%s", out)
	}
	routing := &RoutingExtensionResult{SPFMLU: 2, ECMPMLU: 1.5, OracleMLU: 1.4, TrainGain: 0.2}
	if out := routing.String(); !strings.Contains(out, "SPF 2.000") {
		t.Fatalf("routing rendering:\n%s", out)
	}
	regression := &RegressionExtensionResult{Traces: 10, FixB: core.RegressionResult{MeanQoE: 1.5, Passed: true}, RerunB: -2.75}
	if out := regression.String(); !strings.Contains(out, "fix B (band 11-12s): mean QoE 1.500") ||
		!strings.Contains(out, "against fix B: mean QoE -2.750") {
		t.Fatalf("regression rendering:\n%s", out)
	}
}
