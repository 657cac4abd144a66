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

// Fig4Cell is one bar group of Figure 4: a train/test dataset combination.
type Fig4Cell struct {
	Train, Test string
	// Mean and 5th-percentile QoE for the three variants.
	MeanNoAdv, MeanAdv90, MeanAdv70 float64
	P5NoAdv, P5Adv90, P5Adv70       float64
}

// Fig4Result is the Figure 4 table: QoE of Pensieve trained without
// adversarial traces, with traces injected at 90% of training, and at 70%,
// across {broadband, 3G} × {broadband, 3G} train/test combinations.
type Fig4Result struct {
	Cells []Fig4Cell
}

// Figure4 reproduces Figure 4 using the synthetic FCC-broadband and
// Norway-3G dataset stand-ins.
func Figure4(cfg Config) (*Fig4Result, error) {
	video := cfg.video()
	rng := mathx.NewRNG(cfg.Seed + 500)

	fccTrain := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), cfg.DatasetSize, "fcc-train")
	fccTest := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), cfg.Traces, "fcc-test")
	g3Train := trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), cfg.DatasetSize, "3g-train")
	g3Test := trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), cfg.Traces, "3g-test")

	type variant struct {
		name string
		frac float64
	}
	variants := []variant{{"noadv", 1.0}, {"adv90", 0.9}, {"adv70", 0.7}}

	train := func(ds *trace.Dataset, frac float64, seed uint64) (*abr.Pensieve, error) {
		rcfg := core.DefaultRobustTrainConfig()
		rcfg.TotalIterations = cfg.RobustIters
		rcfg.InjectAtFrac = frac
		rcfg.AdversarialTraces = cfg.RobustTraces
		rcfg.AdvOpt = core.TrainOptions{Iterations: cfg.ABRAdvIters, RolloutSteps: 1536, LR: 1e-3, Restarts: cfg.Restarts, Lanes: cfg.Lanes}
		rcfg.RTTSeconds = cfg.RTTSeconds
		res, err := core.TrainRobustPensieve(video, ds, rcfg, mathx.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		return res.Protocol, nil
	}

	out := &Fig4Result{}
	trainSets := []struct {
		name string
		ds   *trace.Dataset
	}{{"broadband", fccTrain}, {"3g", g3Train}}
	testSets := []struct {
		name string
		ds   *trace.Dataset
	}{{"broadband", fccTest}, {"3g", g3Test}}

	seeds := cfg.Fig4Seeds
	if seeds < 1 {
		seeds = 1
	}
	for ti, ts := range trainSets {
		// Each training seed yields one agent per variant; cells average
		// over seeds. Within a seed the phase-1 training is identical
		// across variants (same RNG), isolating the injection effect;
		// averaging over seeds tames RL training variance, which is by
		// far the largest noise source in this experiment.
		cellAt := map[string]*Fig4Cell{}
		for _, es := range testSets {
			cellAt[es.name] = &Fig4Cell{Train: ts.name, Test: es.name}
		}
		for s := 0; s < seeds; s++ {
			agents := map[string]*abr.Pensieve{}
			for _, v := range variants {
				seed := cfg.Seed + 600 + uint64(ti)*10 + uint64(s)
				agent, err := train(ts.ds, v.frac, seed)
				if err != nil {
					return nil, err
				}
				agents[v.name] = agent
			}
			for _, es := range testSets {
				cell := cellAt[es.name]
				q := func(a *abr.Pensieve) ([]float64, error) {
					return core.EvaluateABR(video, es.ds, a, cfg.RTTSeconds, runtime.GOMAXPROCS(0))
				}
				no, err := q(agents["noadv"])
				if err != nil {
					return nil, err
				}
				a90, err := q(agents["adv90"])
				if err != nil {
					return nil, err
				}
				a70, err := q(agents["adv70"])
				if err != nil {
					return nil, err
				}
				inv := 1.0 / float64(seeds)
				cell.MeanNoAdv += stats.Mean(no) * inv
				cell.MeanAdv90 += stats.Mean(a90) * inv
				cell.MeanAdv70 += stats.Mean(a70) * inv
				cell.P5NoAdv += stats.Percentile(no, 5) * inv
				cell.P5Adv90 += stats.Percentile(a90, 5) * inv
				cell.P5Adv70 += stats.Percentile(a70, 5) * inv
			}
		}
		for _, es := range testSets {
			out.Cells = append(out.Cells, *cellAt[es.name])
		}
	}
	return out, nil
}

// String renders the Figure 4 table.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: QoE with adversarial training (mean | 5th percentile)\n")
	b.WriteString("  train/test              without-adv        adv@90%            adv@70%\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-9s-> %-9s  %6.3f | %6.3f   %6.3f | %6.3f   %6.3f | %6.3f\n",
			c.Train, c.Test,
			c.MeanNoAdv, c.P5NoAdv, c.MeanAdv90, c.P5Adv90, c.MeanAdv70, c.P5Adv70)
	}
	return b.String()
}

// Fig56Result bundles Figures 5 and 6: a trained CC adversary's effect on
// BBR over a 30-second run, and its deterministic action series.
type Fig56Result struct {
	// Figure 5: throughput vs link capacity, sampled every 30 ms.
	Times          []float64
	ThroughputMbps []float64
	BandwidthMbps  []float64
	MeanUtil       float64 // over the run, after startup
	BenignUtil     float64 // BBR on constant best-case conditions
	ScriptedUtil   float64 // the scripted probe attacker, for reference

	// Figure 6: deterministic (noise-free) actions over the same horizon.
	DetBandwidth []float64
	DetLatency   []float64
	DetLoss      []float64
	DetStates    []string
	// Action movement during BBR's probing/startup states vs steady
	// cruising — the Figure 6 observation that fluctuations align with
	// the probing phases.
	ProbeActionDelta  float64
	SteadyActionDelta float64
	MeanDetLoss       float64
}

// Figure5And6 trains the CC adversary against BBR and reproduces Figures 5
// (throughput collapse) and 6 (probe-aligned actions).
func Figure5And6(cfg Config) (*Fig56Result, error) {
	acfg := core.DefaultCCAdversaryConfig()
	opt := core.DefaultCCTrainOptions()
	opt.Iterations = cfg.CCAdvIters
	opt.Lanes = cfg.Lanes
	newBBR := func() netem.CongestionController { return cc.NewBBR() }

	adv, _, err := core.TrainCCAdversary(newBBR, acfg, opt, mathx.NewRNG(cfg.Seed+700))
	if err != nil {
		return nil, err
	}

	res := &Fig56Result{}

	// Figure 5: the adversary as evaluated in the paper (with exploration
	// noise, the normal operating mode of the trained agent).
	records := adv.RunEpisode(newBBR, mathx.NewRNG(cfg.Seed+701), true)
	var u float64
	skip := len(records) / 3
	for i, r := range records {
		res.Times = append(res.Times, r.Time)
		res.ThroughputMbps = append(res.ThroughputMbps, r.ThroughputMbps)
		res.BandwidthMbps = append(res.BandwidthMbps, r.Action.BandwidthMbps)
		if i >= skip {
			u += r.Utilization
		}
	}
	res.MeanUtil = u / float64(len(records)-skip)

	benign := cc.RunTrace(cc.NewBBR(),
		trace.Constant("benign", 30, acfg.BandwidthHi, acfg.LatencyLoMs, 0),
		netem.Config{QueuePackets: acfg.QueuePackets}, mathx.NewRNG(cfg.Seed+702), acfg.IntervalS)
	res.BenignUtil = cc.MeanUtilization(benign[len(benign)/3:])

	scripted := core.RunScriptedCC(newBBR, core.NewBBRProbeAttacker(), acfg, 1000,
		mathx.NewRNG(cfg.Seed+704))
	var su float64
	for _, r := range scripted[len(scripted)/3:] {
		su += r.Utilization
	}
	res.ScriptedUtil = su / float64(len(scripted)-len(scripted)/3)

	// Figure 6: deterministic actions ("without training noise").
	det := adv.RunEpisode(newBBR, mathx.NewRNG(cfg.Seed+703), false)
	var probeChg, steadyChg float64
	var probeN, steadyN int
	var loss float64
	for i, r := range det {
		res.DetBandwidth = append(res.DetBandwidth, r.Action.BandwidthMbps)
		res.DetLatency = append(res.DetLatency, r.Action.LatencyMs)
		res.DetLoss = append(res.DetLoss, r.Action.LossRate)
		res.DetStates = append(res.DetStates, r.State)
		loss += r.Action.LossRate
		if i == 0 {
			continue
		}
		d := absDelta(r.Action.BandwidthMbps, det[i-1].Action.BandwidthMbps)/(acfg.BandwidthHi-acfg.BandwidthLo) +
			absDelta(r.Action.LatencyMs, det[i-1].Action.LatencyMs)/(acfg.LatencyHiMs-acfg.LatencyLoMs)
		if r.State == "probe_rtt" || r.State == "startup" || r.State == "drain" {
			probeChg += d
			probeN++
		} else {
			steadyChg += d
			steadyN++
		}
	}
	if probeN > 0 {
		res.ProbeActionDelta = probeChg / float64(probeN)
	}
	if steadyN > 0 {
		res.SteadyActionDelta = steadyChg / float64(steadyN)
	}
	res.MeanDetLoss = loss / float64(len(det))
	return res, nil
}

// String renders the Figure 5 and Figure 6 panels.
func (r *Fig56Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: BBR on a 30-second adversarial run\n")
	fmt.Fprintf(&b, "  mean utilization %.0f%% of capacity (benign BBR: %.0f%%; scripted probe attacker: %.0f%%)\n",
		100*r.MeanUtil, 100*r.BenignUtil, 100*r.ScriptedUtil)
	b.WriteString(stats.ASCIIPlot(r.ThroughputMbps, 72, 6, "  throughput (mbps)"))
	b.WriteString(stats.ASCIIPlot(r.BandwidthMbps, 72, 6, "  bandwidth (mbps)"))
	b.WriteString("Figure 6: deterministic adversary actions over 1000 x 30ms\n")
	fmt.Fprintf(&b, "  action movement during probing states %.4f vs steady %.4f (ratio %.2fx); mean loss action %.3f\n",
		r.ProbeActionDelta, r.SteadyActionDelta, safeRatio(r.ProbeActionDelta, r.SteadyActionDelta), r.MeanDetLoss)
	b.WriteString(stats.ASCIIPlot(r.DetBandwidth, 72, 5, "  bandwidth action (mbps)"))
	b.WriteString(stats.ASCIIPlot(r.DetLatency, 72, 5, "  latency action (ms)"))
	b.WriteString(stats.ASCIIPlot(r.DetLoss, 72, 4, "  loss action"))
	return b.String()
}

func absDelta(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
