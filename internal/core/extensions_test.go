package core

import (
	"math"
	"path/filepath"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

func TestGoalStrings(t *testing.T) {
	if ABRGoalRegret.String() != "regret" || ABRGoalNaive.String() != "naive" {
		t.Fatal("ABR goal names")
	}
	if ABRGoal(99).String() != "unknown" {
		t.Fatal("unknown goal name")
	}
}

func TestTraceAdversaryShapes(t *testing.T) {
	v := testVideo()
	adv := NewTraceAdversary(mathx.NewRNG(41), v.NumChunks(), DefaultTraceAdversaryConfig())
	tr := adv.GenerateTrace(mathx.NewRNG(42), false, "t")
	if len(tr.Points) != v.NumChunks() {
		t.Fatal("trace length")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Points {
		if p.BandwidthMbps < 0.8 || p.BandwidthMbps > 4.8 {
			t.Fatalf("bandwidth %v out of range", p.BandwidthMbps)
		}
	}
	d := adv.GenerateTraces(mathx.NewRNG(43), 3, "set")
	if len(d.Traces) != 3 {
		t.Fatal("dataset size")
	}
}

func TestTrainTraceAdversaryImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	opt := TrainOptions{Iterations: 15, RolloutSteps: 48, LR: 5e-3}
	_, stats, err := TrainTraceAdversary(v, abr.NewBB(), DefaultTraceAdversaryConfig(), opt, mathx.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	first := stats[0].MeanEpReward
	var best float64 = math.Inf(-1)
	for _, s := range stats[5:] {
		if s.MeanEpReward > best {
			best = s.MeanEpReward
		}
	}
	if best <= first {
		t.Fatalf("trace-based adversary did not improve: first %v, best later %v", first, best)
	}
}

func TestABRRegressionSuite(t *testing.T) {
	v := testVideo()
	_, tr := RunScriptedABR(v, abr.NewBB(), NewBBBufferPinner(), 0.08, "reg")
	ds := &trace.Dataset{Name: "reg", Traces: []*trace.Trace{tr}}

	suite, err := NewABRRegressionSuite(v, abr.NewBB(), ds, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged protocol must pass with zero tolerance.
	res, err := suite.Check(v, abr.NewBB(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || math.Abs(res.MeanDelta) > 1e-9 {
		t.Fatalf("identity check failed: %+v", res)
	}
	// A much worse protocol (always top bitrate) should fail.
	res, err = suite.Check(v, alwaysTop{}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatalf("regression not caught: %+v", res)
	}
	// An improved protocol (MPC on BB's adversarial trace) should pass.
	res, err = suite.Check(v, abr.NewMPC(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.MeanDelta <= 0 {
		t.Fatalf("improvement misclassified: %+v", res)
	}
}

type alwaysTop struct{}

func (alwaysTop) Name() string                       { return "always-top" }
func (alwaysTop) Reset()                             {}
func (alwaysTop) SelectLevel(o *abr.Observation) int { return o.Levels - 1 }

func TestABRRegressionSuiteSaveLoad(t *testing.T) {
	v := testVideo()
	_, tr := RunScriptedABR(v, abr.NewBB(), NewBBBufferPinner(), 0.08, "reg")
	ds := &trace.Dataset{Name: "reg", Traces: []*trace.Trace{tr}}
	suite, err := NewABRRegressionSuite(v, abr.NewBB(), ds, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "suite.json")
	if err := suite.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadABRRegressionSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.BaselineMeanQoE != suite.BaselineMeanQoE || len(loaded.Traces.Traces) != 1 {
		t.Fatal("suite not preserved")
	}
	lres, err := loaded.Check(v, abr.NewBB(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Passed {
		t.Fatal("loaded suite fails identity check")
	}
}

func newBBRf() netem.CongestionController   { return cc.NewBBR() }
func newCubicf() netem.CongestionController { return cc.NewCubic() }

func TestCCEnvDeterministicEpisode(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultCCAdversaryConfig()
		cfg.EpisodeSteps = 60
		env := NewCCEnv(func() netem.CongestionController { return cc.NewBBR() },
			cfg, mathx.NewRNG(77))
		env.Reset()
		var rewards []float64
		rng := mathx.NewRNG(78)
		for i := 0; i < 60; i++ {
			raw := []float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)}
			_, r, done := env.Step(raw)
			rewards = append(rewards, r)
			if done {
				break
			}
		}
		return rewards
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CC env not deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestABREnvDeterministicEpisode(t *testing.T) {
	run := func() []float64 {
		v := testVideo()
		env := NewABREnv(v, abr.NewMPC(), DefaultABRAdversaryConfig())
		env.Reset()
		var rewards []float64
		rng := mathx.NewRNG(79)
		for {
			_, r, done := env.Step([]float64{rng.Uniform(-1, 1)})
			rewards = append(rewards, r)
			if done {
				break
			}
		}
		return rewards
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ABR env not deterministic at step %d", i)
		}
	}
}
