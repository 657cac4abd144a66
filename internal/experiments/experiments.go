// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Figure*/Table* function runs the full pipeline for one
// artifact — training whatever protocols and adversaries it needs — and
// returns a structured result whose String method renders the same rows or
// series the paper reports. The experiments CLI (cmd/experiments) prints
// them, and the claim table (claims_test.go) asserts the paper's claim
// about each on seeds 1–5.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

// Config scales the experiments. Full() approximates the paper's budgets;
// Fast() shrinks everything so each artifact runs in minutes (it is
// cmd/experiments' default and the budget of EXPERIMENTS.md's numbers). The
// shapes reproduce at both scales; Full tightens the statistics.
type Config struct {
	Seed uint64

	Traces        int // traces per evaluation set (paper: 200)
	PensieveIters int // PPO iterations for training Pensieve
	ABRAdvIters   int // PPO iterations for ABR adversaries
	CCAdvIters    int // PPO iterations for the CC adversary
	RobustIters   int // total protocol iterations in the Figure-4 pipeline
	RobustTraces  int // adversarial traces injected in Figure 4
	DatasetSize   int // traces per synthetic dataset
	Restarts      int // independent adversary trainings to pick the best of
	Fig4Seeds     int // independent training seeds averaged in Figure 4
	RTTSeconds    float64
	// Lanes is every adversary training's rollout lane count
	// (rl.TrainOptions.Lanes; ≤ 1 is one lane). It is part of a run's
	// identity: trained results are bitwise the same at any GOMAXPROCS for
	// a fixed Lanes and differ between lane counts. Evaluation sweeps
	// (core.EvaluateABR*) fan out over GOMAXPROCS goroutines, because their
	// results are identical for any goroutine count (DESIGN.md §8.1).
	Lanes int
}

// evalChunkedMean evaluates a protocol over a dataset (chunk-indexed replay)
// and returns the mean QoE.
func (c Config) evalChunkedMean(video *abr.Video, d *trace.Dataset, p abr.Protocol) (float64, error) {
	q, err := core.EvaluateABRChunked(video, d, p, c.RTTSeconds, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	return stats.Mean(q), nil
}

// Fast returns the reduced-budget configuration.
func Fast() Config {
	return Config{
		Seed:          1,
		Traces:        40,
		PensieveIters: 60,
		ABRAdvIters:   80,
		CCAdvIters:    120,
		RobustIters:   60,
		RobustTraces:  25,
		DatasetSize:   40,
		Restarts:      3,
		Fig4Seeds:     2,
		RTTSeconds:    0.08,
	}
}

// Full returns budgets comparable to the paper's (600k adversary steps, 200
// evaluation traces).
func Full() Config {
	return Config{
		Seed:          1,
		Traces:        200,
		PensieveIters: 120,
		ABRAdvIters:   150,
		CCAdvIters:    300,
		RobustIters:   100,
		RobustTraces:  50,
		DatasetSize:   100,
		Restarts:      3,
		Fig4Seeds:     3,
		RTTSeconds:    0.08,
	}
}

// video returns the experiment video (48 four-second chunks, the Pensieve
// ladder, mild VBR).
func (c Config) video() *abr.Video {
	return abr.NewVideo(mathx.NewRNG(c.Seed), abr.DefaultVideoConfig())
}

// randomTraceConfig is the baseline generator over the ABR adversary's
// action space, as in §3.1.
func randomTraceConfig() trace.RandomConfig {
	return trace.RandomConfig{
		Points:      48,
		Duration:    4,
		BandwidthLo: 0.8,
		BandwidthHi: 4.8,
		LatencyLo:   40,
	}
}

// trainPensieve trains the Pensieve agent used as a target in Figures 1-2.
// It trains on a mixed diet — random traces over the adversary's action
// space plus broadband-like and 3G-like traces — which yields an agent
// competitive with MPC on in-distribution conditions (the paper uses the
// authors' pre-trained model, which is similarly competent).
func (c Config) trainPensieve(video *abr.Video) (*abr.Pensieve, error) {
	rng := mathx.NewRNG(c.Seed + 100)
	random := trace.GenerateRandomDataset(rng, randomTraceConfig(), c.DatasetSize*3/2, "rand-train")
	fcc := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), c.DatasetSize/2, "fcc-train")
	g3 := trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), c.DatasetSize/2, "3g-train")
	mix := random.Merge(fcc).Merge(g3)
	p, _, err := abr.TrainPensieve(video, mix, c.PensieveIters, rng.Split())
	return p, err
}

// Table1Result is the reproduction of Table 1 (the CC adversary's action
// ranges), cross-checked against the actions an adversary actually emits.
type Table1Result struct {
	Ranges   [3][2]float64
	Observed [3][2]float64 // min/max over a sampled episode
}

// Table1 reproduces Table 1.
func Table1(cfg Config) Table1Result {
	acfg := core.DefaultCCAdversaryConfig()
	res := Table1Result{Ranges: acfg.Ranges()}

	// Cross-check: run an untrained adversary for one episode and verify
	// every decoded action stays inside the ranges.
	rng := mathx.NewRNG(cfg.Seed)
	adv := core.NewCCAdversary(rng, acfg)
	adv.Cfg.EpisodeSteps = 200
	records := adv.RunEpisode(func() netem.CongestionController { return cc.NewBBR() }, rng, true)
	for i := range res.Observed {
		res.Observed[i] = [2]float64{1e18, -1e18}
	}
	obs := func(i int, v float64) {
		if v < res.Observed[i][0] {
			res.Observed[i][0] = v
		}
		if v > res.Observed[i][1] {
			res.Observed[i][1] = v
		}
	}
	for _, r := range records {
		obs(0, r.Action.BandwidthMbps)
		obs(1, r.Action.LatencyMs)
		obs(2, r.Action.LossRate)
	}
	return res
}

// String renders Table 1.
func (t Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: Range of link parameters produced by adversary\n")
	fmt.Fprintf(&b, "  Bandwidth   %g-%g Mbps   (observed %.2f-%.2f)\n",
		t.Ranges[0][0], t.Ranges[0][1], t.Observed[0][0], t.Observed[0][1])
	fmt.Fprintf(&b, "  Latency     %g-%g ms     (observed %.2f-%.2f)\n",
		t.Ranges[1][0], t.Ranges[1][1], t.Observed[1][0], t.Observed[1][1])
	fmt.Fprintf(&b, "  Loss rate   %g-%g       (observed %.4f-%.4f)\n",
		t.Ranges[2][0], t.Ranges[2][1], t.Observed[2][0], t.Observed[2][1])
	return b.String()
}

// QoESet holds the per-video QoE of each protocol on one trace set.
type QoESet struct {
	TraceSet string
	QoE      map[string][]float64 // protocol name -> per-video mean QoE
}

// Summary returns "name: mean/p5" rows sorted by protocol name order given.
func (q QoESet) Summary(order []string) string {
	var b strings.Builder
	for _, name := range order {
		xs := q.QoE[name]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-9s mean=%6.3f  p5=%6.3f  p50=%6.3f\n",
			name, stats.Mean(xs), stats.Percentile(xs, 5), stats.Percentile(xs, 50))
	}
	return b.String()
}

// Fig12Result bundles Figures 1 and 2: QoE distributions of pensieve / mpc /
// bb on adversarial traces targeting MPC, targeting Pensieve, and on random
// traces, plus the Figure-2 ratio summaries.
type Fig12Result struct {
	Sets []QoESet // "mpc-targeted", "pensieve-targeted", "random"

	// Figure 2's four bars: QoE ratio of the non-targeted protocol over
	// the targeted one.
	PensieveOverMPCOnMPCTraces      stats.RatioSummary
	MPCOverPensieveOnPensieveTraces stats.RatioSummary
	PensieveOverMPCOnRandom         stats.RatioSummary
	MPCOverPensieveOnRandom         stats.RatioSummary
}

// Figure1And2 reproduces Figures 1a, 1b, 1c and Figure 2.
func Figure1And2(cfg Config) (*Fig12Result, error) {
	video := cfg.video()
	pensieve, err := cfg.trainPensieve(video)
	if err != nil {
		return nil, err
	}
	mpc := abr.NewMPC()
	bb := abr.NewBB()
	protocols := []abr.Protocol{pensieve, mpc, bb}

	advOpt := core.TrainOptions{Iterations: cfg.ABRAdvIters, RolloutSteps: 1536, LR: 1e-3, Restarts: cfg.Restarts, Lanes: cfg.Lanes}
	acfg := core.DefaultABRAdversaryConfig()

	gen := func(target abr.Protocol, seed uint64, name string) (*trace.Dataset, error) {
		adv, _, err := core.TrainABRAdversary(video, target, acfg, advOpt, mathx.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		return adv.GenerateTraces(video, target, mathx.NewRNG(seed+1), cfg.Traces, name), nil
	}
	mpcTraces, err := gen(mpc, cfg.Seed+200, "adv-mpc")
	if err != nil {
		return nil, err
	}
	pensieveTraces, err := gen(pensieve, cfg.Seed+300, "adv-pensieve")
	if err != nil {
		return nil, err
	}
	randTraces := trace.GenerateRandomDataset(mathx.NewRNG(cfg.Seed+400), randomTraceConfig(), cfg.Traces, "random")

	res := &Fig12Result{}
	eval := func(name string, d *trace.Dataset) (QoESet, error) {
		set := QoESet{TraceSet: name, QoE: map[string][]float64{}}
		for _, p := range protocols {
			q, err := core.EvaluateABRChunked(video, d, p, cfg.RTTSeconds, runtime.GOMAXPROCS(0))
			if err != nil {
				return QoESet{}, err
			}
			set.QoE[p.Name()] = q
		}
		return set, nil
	}
	for _, s := range []struct {
		name string
		d    *trace.Dataset
	}{{"mpc-targeted", mpcTraces}, {"pensieve-targeted", pensieveTraces}, {"random", randTraces}} {
		set, err := eval(s.name, s.d)
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, set)
	}

	ratio := func(set QoESet, num, den string) stats.RatioSummary {
		shifted, _ := stats.ShiftPositive(0.1, set.QoE[num], set.QoE[den])
		return stats.Ratios(shifted[0], shifted[1])
	}
	res.PensieveOverMPCOnMPCTraces = ratio(res.Sets[0], "pensieve", "mpc")
	res.MPCOverPensieveOnPensieveTraces = ratio(res.Sets[1], "mpc", "pensieve")
	res.PensieveOverMPCOnRandom = ratio(res.Sets[2], "pensieve", "mpc")
	res.MPCOverPensieveOnRandom = ratio(res.Sets[2], "mpc", "pensieve")
	return res, nil
}

// String renders the Figure 1 CDFs and Figure 2 ratio bars.
func (r *Fig12Result) String() string {
	order := []string{"pensieve", "mpc", "bb"}
	var b strings.Builder
	b.WriteString("Figure 1: per-video QoE by trace set\n")
	for _, set := range r.Sets {
		fmt.Fprintf(&b, "  (%s)\n%s", set.TraceSet, set.Summary(order))
		// CDF rows at a fixed grid, like the paper's axes.
		for _, name := range order {
			cdf := stats.NewCDF(set.QoE[name])
			fmt.Fprintf(&b, "    CDF %-9s", name)
			for _, x := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
				fmt.Fprintf(&b, "  F(%.1f)=%.2f", x, cdf.At(x))
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("Figure 2: QoE ratio other/target (mean / p95 / max, frac target worse)\n")
	row := func(label string, s stats.RatioSummary) {
		fmt.Fprintf(&b, "  %-34s %5.2f / %5.2f / %5.2f   %.2f\n",
			label, s.Mean, s.P95, s.Max, s.FractionTargetWorse)
	}
	row("Pensieve/MPC on MPC traces", r.PensieveOverMPCOnMPCTraces)
	row("MPC/Pensieve on Pensieve traces", r.MPCOverPensieveOnPensieveTraces)
	row("Pensieve/MPC on random traces", r.PensieveOverMPCOnRandom)
	row("MPC/Pensieve on random traces", r.MPCOverPensieveOnRandom)
	return b.String()
}

// Fig3Result is the Figure 3 time series: BB versus the offline optimum on
// an adversarial trace.
type Fig3Result struct {
	Times          []float64 // chunk start times (seconds of playback index)
	BBKbps         []float64
	OptKbps        []float64
	BufferS        []float64
	BandwidthMbps  []float64
	BBTotalQoE     float64
	OptTotalQoE    float64
	BBSwitches     int
	OptSwitches    int
	InBandFraction float64 // fraction of chunks with buffer in BB's band
}

// Figure3 reproduces Figure 3 with the scripted buffer pinner (the
// deterministic distillation of what the learned BB adversary does; see
// AblationScriptedVsLearned for the learned variant).
func Figure3(cfg Config) *Fig3Result {
	video := cfg.video()
	session, tr := core.RunScriptedABR(video, abr.NewBB(), core.NewBBBufferPinner(), cfg.RTTSeconds, "bb-adv")

	bw := make([]float64, video.NumChunks())
	for i := range bw {
		bw[i] = tr.Points[i].BandwidthMbps
	}
	oracle := abr.NewOfflineOptimal()
	oracle.RTTSeconds = cfg.RTTSeconds
	optLevels, optQoE := oracle.Solve(video, bw)

	res := &Fig3Result{BBTotalQoE: session.TotalQoE(), OptTotalQoE: optQoE}
	inBand := 0
	for i, r := range session.Results() {
		res.Times = append(res.Times, float64(i)*video.ChunkSeconds)
		res.BBKbps = append(res.BBKbps, video.BitratesKbps[r.Level])
		res.OptKbps = append(res.OptKbps, video.BitratesKbps[optLevels[i]])
		res.BufferS = append(res.BufferS, r.BufferS)
		res.BandwidthMbps = append(res.BandwidthMbps, bw[i])
		if r.BufferS > 8 && r.BufferS < 17 {
			inBand++
		}
		if i > 0 {
			if session.Results()[i].Level != session.Results()[i-1].Level {
				res.BBSwitches++
			}
			if optLevels[i] != optLevels[i-1] {
				res.OptSwitches++
			}
		}
	}
	res.InBandFraction = float64(inBand) / float64(video.NumChunks())
	return res
}

// String renders the three Figure 3 panels as ASCII series.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: BB on an adversarial trace\n")
	fmt.Fprintf(&b, "  BB total QoE %.1f vs offline optimum %.1f; switches %d vs %d; buffer in 10-15s band %.0f%% of chunks\n",
		r.BBTotalQoE, r.OptTotalQoE, r.BBSwitches, r.OptSwitches, 100*r.InBandFraction)
	b.WriteString(stats.ASCIIPlot(r.BBKbps, 72, 6, "  bitrate selection, BB (kbps)"))
	b.WriteString(stats.ASCIIPlot(r.OptKbps, 72, 6, "  bitrate selection, offline optimum (kbps)"))
	b.WriteString(stats.ASCIIPlot(r.BufferS, 72, 6, "  buffer size (sec)"))
	b.WriteString(stats.ASCIIPlot(r.BandwidthMbps, 72, 6, "  bandwidth (mbps)"))
	return b.String()
}
