package core

import (
	"math"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

func testVideo() *abr.Video {
	cfg := abr.DefaultVideoConfig()
	cfg.VBRJitter = 0
	return abr.NewVideo(mathx.NewRNG(1), cfg)
}

func TestABREnvMapActionBounds(t *testing.T) {
	env := NewABREnv(testVideo(), abr.NewBB(), DefaultABRAdversaryConfig())
	for _, raw := range []float64{-10, -1, -0.5, 0, 0.5, 1, 10} {
		bw := env.MapAction(raw)
		if bw < 0.8 || bw > 4.8 {
			t.Fatalf("MapAction(%v) = %v outside [0.8, 4.8]", raw, bw)
		}
	}
	if env.MapAction(-1) != 0.8 || env.MapAction(1) != 4.8 {
		t.Fatal("MapAction endpoints wrong")
	}
	if math.Abs(env.MapAction(0)-2.8) > 1e-12 {
		t.Fatal("MapAction midpoint wrong")
	}
}

func TestABREnvEpisodeShape(t *testing.T) {
	v := testVideo()
	env := NewABREnv(v, abr.NewBB(), DefaultABRAdversaryConfig())
	obs := env.Reset()
	if len(obs) != env.ObservationSize() {
		t.Fatalf("obs size %d != %d", len(obs), env.ObservationSize())
	}
	steps := 0
	rng := mathx.NewRNG(2)
	for {
		var done bool
		obs, _, done = env.Step([]float64{rng.Uniform(-1, 1)})
		steps++
		if len(obs) != env.ObservationSize() {
			t.Fatal("obs size changed")
		}
		if done {
			break
		}
	}
	if steps != v.NumChunks() {
		t.Fatalf("episode length %d, want %d", steps, v.NumChunks())
	}
	if len(env.BandwidthHistory()) != v.NumChunks() {
		t.Fatal("bandwidth history incomplete")
	}
}

func TestABREnvRewardInvariant(t *testing.T) {
	// r_opt >= r_protocol always (the protocol's own choices are one of the
	// sequences the window oracle searches), so reward >= -smoothing term.
	cfg := DefaultABRAdversaryConfig()
	v := testVideo()
	for _, target := range []abr.Protocol{abr.NewBB(), abr.NewMPC(), abr.NewRateBased()} {
		env := NewABREnv(v, target, cfg)
		env.Reset()
		rng := mathx.NewRNG(3)
		for {
			raw := rng.Uniform(-1, 1)
			_, r, done := env.Step([]float64{raw})
			maxSmooth := cfg.SmoothWeight * (cfg.BandwidthHi - cfg.BandwidthLo)
			if r < -maxSmooth-1e-9 {
				t.Fatalf("%s: reward %v < -max smoothing %v (r_opt < r_protocol?)",
					target.Name(), r, maxSmooth)
			}
			if done {
				break
			}
		}
	}
}

func TestABREnvSmoothingPenalty(t *testing.T) {
	// Two identical runs except one oscillates bandwidth: the oscillating
	// one must accumulate a larger total smoothing penalty. Compare the
	// reward difference between SmoothWeight 0 and 1 on the same actions.
	v := testVideo()
	run := func(weight float64, oscillate bool) float64 {
		cfg := DefaultABRAdversaryConfig()
		cfg.SmoothWeight = weight
		env := NewABREnv(v, abr.NewBB(), cfg)
		env.Reset()
		total := 0.0
		for i := 0; ; i++ {
			raw := 0.0
			if oscillate && i%2 == 0 {
				raw = 1
			} else if oscillate {
				raw = -1
			}
			_, r, done := env.Step([]float64{raw})
			total += r
			if done {
				break
			}
		}
		return total
	}
	penaltySteady := run(0, false) - run(1, false)
	penaltyOsc := run(0, true) - run(1, true)
	if penaltyOsc <= penaltySteady {
		t.Fatalf("oscillation penalty %v should exceed steady penalty %v", penaltyOsc, penaltySteady)
	}
	if penaltySteady < -1e-9 {
		t.Fatalf("negative penalty %v", penaltySteady)
	}
}

func TestBBBufferPinnerForcesOscillation(t *testing.T) {
	v := testVideo()
	session, tr := RunScriptedABR(v, abr.NewBB(), NewBBBufferPinner(), 0.08, "pin")
	if len(tr.Points) != v.NumChunks() {
		t.Fatal("trace length")
	}
	// Count BB's level switches under attack and compare against the
	// offline-optimal path on the *same* trace: the paper's point is that
	// BB oscillates where a steady low-then-rising schedule was optimal.
	switches := func(levels []int) int {
		n := 0
		for i := 1; i < len(levels); i++ {
			if levels[i] != levels[i-1] {
				n++
			}
		}
		return n
	}
	var bbLevels []int
	for _, r := range session.Results() {
		bbLevels = append(bbLevels, r.Level)
	}
	bw := make([]float64, v.NumChunks())
	for i := range bw {
		bw[i] = tr.Points[i].BandwidthMbps
	}
	oracle := abr.NewOfflineOptimal()
	oracle.RTTSeconds = 0.08
	optLevels, _ := oracle.Solve(v, bw)

	attacked := switches(bbLevels)
	optimal := switches(optLevels)
	if attacked < 2*optimal+5 {
		t.Fatalf("BB switched %d times vs optimal %d — no forced oscillation", attacked, optimal)
	}
	if attacked < v.NumChunks()/3 {
		t.Fatalf("BB switched only %d times across %d chunks", attacked, v.NumChunks())
	}

	// The buffer should be held near BB's decision band.
	inBand := 0
	for _, r := range session.Results()[4:] {
		if r.BufferS > 8 && r.BufferS < 17 {
			inBand++
		}
	}
	if frac := float64(inBand) / float64(len(session.Results())-4); frac < 0.8 {
		t.Fatalf("buffer in band only %v of the time", frac)
	}
}

func TestBBPinnerTraceLeavesHeadroom(t *testing.T) {
	// The paper: a meaningful adversarial trace is one where the protocol
	// does far worse than attainable. Verify the offline optimum on the
	// pinner's trace is much better than BB's QoE.
	v := testVideo()
	session, tr := RunScriptedABR(v, abr.NewBB(), NewBBBufferPinner(), 0.08, "pin")
	bw := make([]float64, v.NumChunks())
	for i := range bw {
		bw[i] = tr.Points[i].BandwidthMbps
	}
	oracle := abr.NewOfflineOptimal()
	oracle.RTTSeconds = 0.08
	_, opt := oracle.Solve(v, bw)
	if opt < session.TotalQoE()+0.3*float64(v.NumChunks()) {
		t.Fatalf("BB %v vs optimum %v: trace leaves too little headroom",
			session.MeanQoE(), opt/float64(v.NumChunks()))
	}
}

func TestCCEnvShape(t *testing.T) {
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 50
	env := NewCCEnv(func() netem.CongestionController { return cc.NewBBR() }, cfg, mathx.NewRNG(5))
	obs := env.Reset()
	if len(obs) != 2 || env.ObservationSize() != 2 {
		t.Fatal("CC observation size")
	}
	steps := 0
	for {
		_, r, done := env.Step([]float64{0.5, -0.5, -1})
		steps++
		if r < -1.1 || r > 1.1 {
			t.Fatalf("reward %v outside plausible range", r)
		}
		if done {
			break
		}
	}
	if steps != 50 {
		t.Fatalf("episode length %d", steps)
	}
	if len(env.Records()) != 50 {
		t.Fatal("records incomplete")
	}
	spec := env.ActionSpec()
	if spec.Dim != 3 {
		t.Fatal("action spec")
	}
}

func TestCCEnvDecodeActionRanges(t *testing.T) {
	cfg := DefaultCCAdversaryConfig()
	env := NewCCEnv(func() netem.CongestionController { return cc.NewBBR() }, cfg, mathx.NewRNG(6))
	rng := mathx.NewRNG(7)
	for i := 0; i < 200; i++ {
		raw := []float64{rng.Uniform(-3, 3), rng.Uniform(-3, 3), rng.Uniform(-3, 3)}
		a := env.DecodeAction(raw)
		if a.BandwidthMbps < 6 || a.BandwidthMbps > 24 {
			t.Fatalf("bandwidth %v outside Table 1", a.BandwidthMbps)
		}
		if a.LatencyMs < 15 || a.LatencyMs > 60 {
			t.Fatalf("latency %v outside Table 1", a.LatencyMs)
		}
		if a.LossRate < 0 || a.LossRate > 0.1 {
			t.Fatalf("loss %v outside Table 1", a.LossRate)
		}
		if a.Raw[0] != raw[0] {
			t.Fatal("raw action not preserved")
		}
	}
}

func TestCCEnvRewardFormula(t *testing.T) {
	// reward = 1 - U - L - 0.01*S; with the first step S = 0 (EWMA not yet
	// initialized), so reward = 1 - U - L exactly.
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 5
	env := NewCCEnv(func() netem.CongestionController { return cc.NewBBR() }, cfg, mathx.NewRNG(8))
	env.Reset()
	_, r, _ := env.Step([]float64{1, -1, 1}) // bw 24, lat 15, loss 0.1
	rec := env.Records()[0]
	want := 1 - rec.Utilization - 0.1
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("first-step reward %v, want %v", r, want)
	}
}

func TestBBRProbeAttackerReducesUtilization(t *testing.T) {
	cfg := DefaultCCAdversaryConfig()
	rng := mathx.NewRNG(9)
	steps := 1000 // 30 seconds

	// Benign: constant best-case conditions.
	benign := cc.RunTrace(cc.NewBBR(),
		trace.Constant("benign", 30, cfg.BandwidthHi, cfg.LatencyLoMs, 0),
		netem.Config{QueuePackets: cfg.QueuePackets}, mathx.NewRNG(10), cfg.IntervalS)
	benignUtil := cc.MeanUtilization(benign[len(benign)/3:])

	records := RunScriptedCC(func() netem.CongestionController { return cc.NewBBR() },
		NewBBRProbeAttacker(), cfg, steps, rng)
	var attacked float64
	for _, r := range records[len(records)/3:] {
		attacked += r.Utilization
	}
	attacked /= float64(len(records) - len(records)/3)

	if benignUtil < 0.8 {
		t.Fatalf("BBR benign utilization %v too low for a meaningful comparison", benignUtil)
	}
	// The paper: adversary reduces BBR to 45-65% of capacity. Accept a
	// generous band around that.
	if attacked > 0.75 {
		t.Fatalf("probe attacker failed: utilization %v (benign %v)", attacked, benignUtil)
	}
	if attacked < 0.15 {
		t.Fatalf("attack implausibly strong (%v) — check the emulator", attacked)
	}
}

func TestRecordsToTrace(t *testing.T) {
	records := []CCStepRecord{
		{Action: CCAction{BandwidthMbps: 10, LatencyMs: 20, LossRate: 0.01}},
		{Action: CCAction{BandwidthMbps: 12, LatencyMs: 30, LossRate: 0}},
	}
	tr := RecordsToTrace(records, 0.03, "t")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Points[1].BandwidthMbps != 12 || tr.Points[0].LossRate != 0.01 {
		t.Fatal("conversion wrong")
	}
	if tr.TotalDuration() != 0.06 {
		t.Fatal("durations wrong")
	}
}

func TestGenerateTraceReplayable(t *testing.T) {
	v := testVideo()
	rng := mathx.NewRNG(11)
	adv := NewABRAdversary(rng, v.Levels(), DefaultABRAdversaryConfig())
	tr := adv.GenerateTrace(v, abr.NewBB(), rng, false, "t")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != v.NumChunks() {
		t.Fatal("trace length")
	}
	// Replay must complete and produce a finite QoE.
	s := abr.RunSession(v, &abr.TraceLink{Trace: tr, RTTSeconds: 0.08},
		abr.DefaultSessionConfig(), abr.NewBB())
	if math.IsNaN(s.MeanQoE()) || math.IsInf(s.MeanQoE(), 0) {
		t.Fatal("replay QoE not finite")
	}
}

func TestGenerateTracesDistinct(t *testing.T) {
	v := testVideo()
	rng := mathx.NewRNG(12)
	adv := NewABRAdversary(rng, v.Levels(), DefaultABRAdversaryConfig())
	d := adv.GenerateTraces(v, abr.NewBB(), rng, 3, "adv")
	if len(d.Traces) != 3 {
		t.Fatal("count")
	}
	// Stochastic episodes: traces should differ.
	a, b := d.Traces[0].Bandwidths(), d.Traces[1].Bandwidths()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stochastic traces identical")
	}
}

func TestTrainABRAdversaryImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	cfg := DefaultABRAdversaryConfig()
	opt := TrainOptions{Iterations: 12, RolloutSteps: 768, LR: 1e-3}
	_, stats, err := TrainABRAdversary(v, abr.NewBB(), cfg, opt, mathx.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	first := stats[0].MeanEpReward
	last := stats[len(stats)-1].MeanEpReward
	if last <= first {
		t.Fatalf("adversary reward did not improve: %v -> %v", first, last)
	}
}

func TestTrainCCAdversaryReducesBBRThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 600
	opt := DefaultCCTrainOptions()
	opt.Iterations = 20
	opt.RolloutSteps = 1200
	adv, stats, err := TrainCCAdversary(func() netem.CongestionController { return cc.NewBBR() },
		cfg, opt, mathx.NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if math.IsNaN(s.MeanStepRew) || math.IsNaN(s.PolicyLoss) {
			t.Fatal("NaN in training stats")
		}
	}
	// The paper's §4 claim: the adversary significantly reduces BBR's
	// throughput relative to capacity. Benign BBR reaches ~0.95+.
	records := adv.RunEpisode(func() netem.CongestionController { return cc.NewBBR() },
		mathx.NewRNG(15), true)
	var u float64
	skip := len(records) / 3
	for _, r := range records[skip:] {
		u += r.Utilization
	}
	u /= float64(len(records) - skip)
	if u > 0.7 {
		t.Fatalf("trained adversary leaves BBR at %.2f utilization, want < 0.7", u)
	}
}

func TestTrainCCAdversaryDeterministicGivenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func() float64 {
		cfg := DefaultCCAdversaryConfig()
		cfg.EpisodeSteps = 200
		opt := TrainOptions{Iterations: 2, RolloutSteps: 400, LR: 1e-3}
		_, stats, err := TrainCCAdversary(func() netem.CongestionController { return cc.NewBBR() },
			cfg, opt, mathx.NewRNG(21))
		if err != nil {
			t.Fatal(err)
		}
		return stats[1].MeanStepRew
	}
	if run() != run() {
		t.Fatal("CC adversary training not deterministic for a fixed seed")
	}
}

func TestRobustPensievePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	rng := mathx.NewRNG(15)
	ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 10, "fcc")
	cfg := DefaultRobustTrainConfig()
	cfg.TotalIterations = 6
	cfg.InjectAtFrac = 0.5
	cfg.AdversarialTraces = 5
	cfg.AdvOpt = TrainOptions{Iterations: 3, RolloutSteps: 512, LR: 1e-3}
	res, err := TrainRobustPensieve(v, ds, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary == nil || res.AdversarialTraces == nil {
		t.Fatal("pipeline skipped adversarial phase")
	}
	if res.Phase1Iterations != 3 || res.Phase2Iterations != 3 {
		t.Fatalf("phases %d/%d", res.Phase1Iterations, res.Phase2Iterations)
	}
	if len(res.AdversarialTraces.Traces) != 5 {
		t.Fatal("trace count")
	}
	// The resulting protocol must stream successfully.
	qoes, err := EvaluateABR(v, ds, res.Protocol, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qoes) != 10 {
		t.Fatal("evaluation count")
	}
	for _, q := range qoes {
		if math.IsNaN(q) {
			t.Fatal("NaN QoE")
		}
	}
}

func TestRobustPipelineDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	rng := mathx.NewRNG(16)
	ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 5, "fcc")
	cfg := DefaultRobustTrainConfig()
	cfg.TotalIterations = 2
	cfg.InjectAtFrac = 1.0 // disabled
	res, err := TrainRobustPensieve(v, ds, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary != nil || res.Phase2Iterations != 0 {
		t.Fatal("adversarial phase ran despite being disabled")
	}
}

func TestTable1Ranges(t *testing.T) {
	r := DefaultCCAdversaryConfig().Ranges()
	want := [3][2]float64{{6, 24}, {15, 60}, {0, 0.1}}
	if r != want {
		t.Fatalf("Table 1 ranges %v, want %v", r, want)
	}
}

func TestABREnvLastRawAction(t *testing.T) {
	env := NewABREnv(testVideo(), abr.NewBB(), DefaultABRAdversaryConfig())
	env.Reset()
	env.Step([]float64{2.5}) // outside [-1,1]: clipped for the link, kept raw here
	raw := env.lastRaw
	if len(raw) != 1 || raw[0] != 2.5 {
		t.Fatalf("raw action %v, want [2.5]", raw)
	}
	if bw := env.BandwidthHistory()[0]; bw != 4.8 {
		t.Fatalf("clipped bandwidth %v, want 4.8", bw)
	}
}
