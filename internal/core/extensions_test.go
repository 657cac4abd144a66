package core

import (
	"errors"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/par"
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

func TestPerturbEnvRespectsDeviationBound(t *testing.T) {
	v := testVideo()
	base := trace.Constant("base", 1000, 2.5, 40, 0)
	cfg := DefaultPerturbConfig()
	env := NewPerturbEnv(v, abr.NewBB(), base, cfg)
	env.Reset()
	rng := mathx.NewRNG(33)
	for {
		_, _, done := env.Step([]float64{rng.Uniform(-5, 5)}) // wild raw actions
		if done {
			break
		}
	}
	if d := env.MaxObservedDeviation(); d > cfg.MaxDeviationMbps+1e-9 {
		t.Fatalf("observed deviation %v exceeds bound %v", d, cfg.MaxDeviationMbps)
	}
}

func TestPerturbEnvFloor(t *testing.T) {
	v := testVideo()
	base := trace.Constant("base", 1000, 0.3, 40, 0) // below the floor
	cfg := DefaultPerturbConfig()
	env := NewPerturbEnv(v, abr.NewBB(), base, cfg)
	env.Reset()
	env.Step([]float64{-1})
	if bw := env.BandwidthHistory()[0]; bw < cfg.Floor {
		t.Fatalf("bandwidth %v below floor %v", bw, cfg.Floor)
	}
}

func TestTrainPerturbAdversaryAndValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	base := trace.GenerateFCCLike(mathx.NewRNG(35), trace.DefaultFCCLike(), "base")
	cfg := DefaultPerturbConfig()
	opt := TrainOptions{Iterations: 4, RolloutSteps: 512, LR: 1e-3}
	adv, stats, err := TrainPerturbAdversary(v, abr.NewBB(), base, cfg, opt, mathx.NewRNG(36))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatal("iteration count")
	}
	tr := adv.GenerateTrace(v, abr.NewBB(), base, mathx.NewRNG(37), false, "pert")
	if err := cfg.Validate(base, tr); err != nil {
		t.Fatalf("perturbed trace escapes constraint: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
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

func TestCCRegressionSuite(t *testing.T) {
	adv := NewCCAdversary(mathx.NewRNG(51), DefaultCCAdversaryConfig())
	adv.Cfg.EpisodeSteps = 200
	newBBR := func() netem.CongestionController { return cc.NewBBR() }
	suite, err := NewCCRegressionSuite("bbr", adv, newBBR, 2, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Identity re-check reproduces the baseline exactly (same seeds).
	util, passed, err := suite.Check(newBBR, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !passed || math.Abs(util-suite.BaselineUtil) > 1e-12 {
		t.Fatalf("identity check: util %v vs baseline %v", util, suite.BaselineUtil)
	}
	// A parallel re-check measures exactly the same utilization: episodes
	// are seeded independently and folded in episode order.
	util2, _, err := suite.Check(newBBR, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if util2 != util {
		t.Fatalf("parallel CC check diverged: %v vs %v", util2, util)
	}
	// Reno under the same adversary should behave differently; the check
	// must still return a sane measurement.
	u2, _, err := suite.Check(func() netem.CongestionController { return cc.NewReno() }, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u2 < 0 || u2 > 1 {
		t.Fatalf("reno utilization %v", u2)
	}
}

// panickyBBR is a controller bug: BBR that panics on its first ack.
type panickyBBR struct{ *cc.BBR }

func (panickyBBR) OnAck(netem.Ack) { panic("injected controller fault") }

// TestCCRegressionSuitePanicContained: a controller that panics in one
// episode comes back as a *par.PanicError naming a worker instead of
// crashing the process.
func TestCCRegressionSuitePanicContained(t *testing.T) {
	adv := NewCCAdversary(mathx.NewRNG(51), DefaultCCAdversaryConfig())
	adv.Cfg.EpisodeSteps = 200
	var built atomic.Int32
	newCC := func() netem.CongestionController {
		if built.Add(1) == 3 {
			return panickyBBR{cc.NewBBR()}
		}
		return cc.NewBBR()
	}
	_, err := NewCCRegressionSuite("bbr", adv, newCC, 4, 99, 2)
	var perr *par.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	if perr.Index != 0 && perr.Index != 1 {
		t.Fatalf("panic attributed to worker %d, want 0 or 1", perr.Index)
	}
}

func newBBRf() netem.CongestionController   { return cc.NewBBR() }
func newCubicf() netem.CongestionController { return cc.NewCubic() }

func TestFairnessEnvShapes(t *testing.T) {
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 40
	env := NewFairnessEnv([]func() netem.CongestionController{newBBRf, newCubicf},
		cfg, mathx.NewRNG(71))
	obs := env.Reset()
	if len(obs) != 3 || env.ObservationSize() != 3 {
		t.Fatal("observation size")
	}
	steps := 0
	for {
		next, r, done := env.Step([]float64{0.5, -0.2, -1})
		steps++
		if math.IsNaN(r) || r > 1.01 || r < -1.2 {
			t.Fatalf("reward %v", r)
		}
		// Shares are a distribution (or all-zero before any delivery).
		sum := next[0] + next[1]
		if sum > 1.0001 || next[0] < 0 || next[1] < 0 {
			t.Fatalf("shares %v", next[:2])
		}
		if done {
			break
		}
	}
	if steps != 40 {
		t.Fatalf("episode length %d", steps)
	}
	rec := env.Records()
	if len(rec) != 40 {
		t.Fatal("records")
	}
	for _, r := range rec {
		if r.Jain < 0.49 || r.Jain > 1.0001 {
			t.Fatalf("Jain %v outside [1/n, 1]", r.Jain)
		}
	}
}

func TestFairnessEnvRewardTracksUnfairness(t *testing.T) {
	// With zero loss and a settled EWMA, reward ≈ 1 − Jain.
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 100
	cfg.SmoothCoef = 0
	env := NewFairnessEnv([]func() netem.CongestionController{newBBRf, newCubicf},
		cfg, mathx.NewRNG(73))
	env.Reset()
	for i := 0; i < 100; i++ {
		_, r, done := env.Step([]float64{0, 0, -1}) // loss 0
		rec := env.Records()[len(env.Records())-1]
		if math.Abs(r-(1-rec.Jain)) > 1e-9 {
			t.Fatalf("reward %v != 1 - Jain %v", r, 1-rec.Jain)
		}
		if done {
			break
		}
	}
}

func TestTrainFairnessAdversaryRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 200
	opt := TrainOptions{Iterations: 3, RolloutSteps: 400, LR: 1e-3}
	adv, stats, err := TrainFairnessAdversary(
		[]func() netem.CongestionController{newBBRf, newCubicf}, cfg, opt, mathx.NewRNG(75))
	if err != nil {
		t.Fatal(err)
	}
	if adv.Policy == nil || len(stats) != 3 {
		t.Fatal("training incomplete")
	}
	for _, s := range stats {
		if math.IsNaN(s.MeanStepRew) {
			t.Fatal("NaN reward")
		}
	}
}

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
