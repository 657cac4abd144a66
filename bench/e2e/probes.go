package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/dist"
	"advnet/internal/fsx"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/netem"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/stats"
	"advnet/internal/swarm"
	"advnet/internal/trace"
	"advnet/internal/vclock"
)

// Layer probes: tight loops over one public function with inputs shaped like
// a workload's, so that a change in one layer shows under that layer's name
// before (and whether or not) it moves an end-to-end number. README's third
// table says which end-to-end number each should move.

const probeBatches = 9 // a probe runs this many batches and keeps the fastest

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// perCall runs batch (calls invocations of the function under test)
// probeBatches times and returns the fastest batch's seconds per call.
func perCall(calls int, batch func()) float64 {
	best := math.Inf(1)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		batch()
		if dt := time.Since(t0).Seconds(); dt < best {
			best = dt
		}
	}
	return best / float64(calls)
}

// fastestOf runs f n times and returns the smallest value it reported.
func fastestOf(n int, f func() (float64, error)) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		best = math.Min(best, v)
	}
	return best, nil
}

// mallocs returns how many heap objects f allocated.
func mallocs(f func()) (objects, bytes float64) {
	var mem memCounters
	m0, b0 := mem.read()
	f()
	m1, b1 := mem.read()
	return float64(m1 - m0), float64(b1 - b0)
}

// layers collects per-layer metrics by name.
type layers struct {
	values map[string]float64
}

func (l *layers) set(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("e2e: layer metric " + name + " is not declared in layerUnits")
	}
	l.values[name] = v
}

// layerUnits declares every per-layer metric and its unit; BENCHMARK.json's
// per_layer list must name exactly these (checked by a test).
var layerUnits = map[string]string{
	"mathx.rng_norm_ns": "ns", "mathx.dot_ns": "ns",

	"nn.fwd_us": "us", "nn.bwd_us": "us",
	"nn.fwd_rows_us_per_row": "us", "nn.bwd_rows_us_per_row": "us",
	"nn.fwd_gemm_us_per_row": "us", "nn.bwd_gemm_us_per_row": "us",
	"nn.adam_step_us": "us", "nn.fwd_allocs": "count",

	"rl.rollout_s": "s", "rl.update_s": "s", "rl.update_share": "share",
	"rl.lane_collect_us_per_step": "us", "rl.apply_remote_ms": "ms",
	"rl.ckpt_save_ms": "ms", "rl.ckpt_load_ms": "ms",

	"trace.gen_fcc40_ms": "ms", "trace.load_json_ms": "ms",

	"abr.session_step_us": "us", "abr.link_download_ns": "ns", "abr.window_optimal_us": "us",
	"abr.pensieve_select_us": "us", "abr.mpc_select_us": "us", "abr.apply_chunk_ns": "ns",

	"core.phase1_s": "s", "core.adv_train_s": "s", "core.trace_gen_s": "s",
	"core.phase2_s": "s", "core.eval_s": "s", "core.cover_share": "share",
	"core.abr_env_step_us": "us", "core.cc_env_step_us": "us",

	"netem.interval_us": "us", "netem.pkt_ns": "ns", "netem.allocs_per_interval": "count",
	"netem.multi_event_ns": "ns", "vclock.sched_pop_ns": "ns", "cc.run_trace_ms": "ms",

	"swarm.event_ns": "ns", "swarm.group_setup_us_per_client": "us", "swarm.alloc_kb_per_client": "KB",
	"swarm.events_per_client": "count", "swarm.w2_speedup": "ratio", "swarm.netem_event_ns": "ns",

	"serve.sat_req_per_s": "1/s", "serve.avg_batch": "count",
	"serve.engine_p50_us": "us", "serve.engine_p99_us": "us",
	"serve.paced_p90_us": "us", "serve.paced_p99_us": "us", "serve.paced_late_p99_us": "us",
	"serve.lone_p50_us": "us", "serve.c32_req_per_s": "1/s", "serve.shed_share": "share",
	"serve.allocs_per_req": "count", "serve.publish_us": "us", "serve.predict_us": "us",

	"dist.iter_ms": "ms", "dist.wire_kb_per_iter": "KB", "dist.connect_ms": "ms",
	"dist.reassignments": "count", "dist.vs_vec_ratio": "ratio",

	"stats.reservoir_add_ns": "ns", "metrics.timer_observe_ns": "ns", "fsx.write_atomic_ms": "ms",

	"trace_overhead": "share",
}

// scratchDir makes a directory for the probes that touch the disk, inside
// the working directory (the benchmark writes nowhere else) and under the
// build directory the repository's .gitignore already names.
func scratchDir() (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "e2e-probe-")
}

// runProbes fills every per-layer metric except the span-derived ones of
// the traced units (core.* phases, trace_overhead), which traceRun adds.
func runProbes(l *layers, seed uint64) error {
	root := mathx.NewRNG(seed)
	video := abr.NewVideo(root.Split(), abr.DefaultVideoConfig())
	levels := video.Levels()
	data := trace.GenerateFCCLikeDataset(root.Split(), trace.DefaultFCCLike(), 40, "fcc")
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	probeMathx(l, root.Split())
	probeNN(l, root.Split(), levels)
	if err := probeRL(l, root.Split(), video, data, dir, seed); err != nil {
		return err
	}
	if err := probeTrace(l, root.Split(), data, dir); err != nil {
		return err
	}
	probeABR(l, root.Split(), video, data)
	probeEnvs(l, root.Split(), video)
	probeNetem(l, root.Split())
	if err := probeSwarm(l, root.Split(), video, seed); err != nil {
		return err
	}
	if err := probeServe(l, seed); err != nil {
		return err
	}
	if err := probeDist(l, seed); err != nil {
		return err
	}
	return probeSmall(l, dir)
}

func probeMathx(l *layers, rng *mathx.RNG) {
	const n = 100000
	l.set("mathx.rng_norm_ns", 1e9*perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += rng.Norm()
		}
	}))
	a, b := make([]float64, 64), make([]float64, 64) // the Pensieve net's widest layer
	for i := range a {
		a[i], b[i] = rng.Uniform(-1, 1), rng.Uniform(-1, 1)
	}
	l.set("mathx.dot_ns", 1e9*perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += mathx.Dot(a, b)
		}
	}))
}

func probeNN(l *layers, rng *mathx.RNG, levels int) {
	m := abr.NewPensieveNet(rng, levels)
	in, out := m.InputSize(), m.OutputSize()
	random := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Uniform(-1, 1)
		}
		return xs
	}
	x, dOut := random(in), random(out)
	cache := m.NewCache()

	const n = 2000
	l.set("nn.fwd_us", 1e6*perCall(n, func() {
		for i := 0; i < n; i++ {
			m.ForwardInto(cache, x)
		}
	}))
	l.set("nn.bwd_us", 1e6*perCall(n, func() {
		for i := 0; i < n; i++ {
			m.BackwardInto(cache, dOut)
		}
	}))
	objects, _ := mallocs(func() {
		for i := 0; i < 1000; i++ {
			m.ForwardInto(cache, x)
		}
	})
	l.set("nn.fwd_allocs", objects/1000)

	// Batched passes at the sizes the system uses them: PPO's minibatch of
	// 64 on the row-at-a-time path (training default), the engine's batch of
	// 32 on the GEMM path.
	for _, mode := range []struct {
		name  string
		rows  int
		cache *nn.BatchCache
	}{
		{"rows", 64, m.NewBatchCache(64)},
		{"gemm", 32, m.NewBatchCacheGEMM(32)},
	} {
		xs, douts := random(mode.rows*in), random(mode.rows*out)
		const reps = 60
		calls := reps * mode.rows
		l.set("nn.fwd_"+mode.name+"_us_per_row", 1e6*perCall(calls, func() {
			for i := 0; i < reps; i++ {
				m.ForwardBatch(mode.cache, xs, mode.rows)
			}
		}))
		l.set("nn.bwd_"+mode.name+"_us_per_row", 1e6*perCall(calls, func() {
			for i := 0; i < reps; i++ {
				m.BackwardBatch(mode.cache, douts)
			}
		}))
	}

	adam := nn.NewAdam(1e-3)
	const steps = 200
	l.set("nn.adam_step_us", 1e6*perCall(steps, func() {
		for i := 0; i < steps; i++ {
			adam.Step(m.Params(), m.Grads())
		}
	}))
}

func probeRL(l *layers, rng *mathx.RNG, video *abr.Video, data *trace.Dataset, dir string, seed uint64) error {
	// One standalone PPO on the Pensieve problem, watched through the
	// trainer's own telemetry hook.
	levels := video.Levels()
	cfg := rl.DefaultPPOConfig()
	cfg.RolloutSteps = 1024
	cfg.LR = 1e-3
	ppo, err := rl.NewPPO(rl.NewCategoricalPolicy(abr.NewPensieveNet(rng, levels)), abr.NewPensieveValueNet(rng, levels), cfg, rng)
	if err != nil {
		return err
	}
	tm := rl.NewTrainMetrics(metrics.NewRegistry("train"))
	ppo.SetMetrics(tm)
	env := abr.NewTrainEnv(video, data, abr.DefaultSessionConfig(), abrRTT, rng.Split())
	ppo.Train(env, 5)
	rollout, update := tm.Rollout.Summary().Min, tm.Update.Summary().Min
	l.set("rl.rollout_s", rollout)
	l.set("rl.update_s", update)
	l.set("rl.update_share", update/(rollout+update))

	path := filepath.Join(dir, "ppo.ckpt")
	save, err := fastestOf(5, func() (float64, error) {
		t0 := time.Now()
		err := ppo.SaveCheckpoint(path, env)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return err
	}
	load, err := fastestOf(5, func() (float64, error) {
		t0 := time.Now()
		err := ppo.LoadCheckpoint(path, env)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return err
	}
	l.set("rl.ckpt_save_ms", 1e3*save)
	l.set("rl.ckpt_load_ms", 1e3*load)

	// The two halves of a dist iteration without the socket: lanes collect,
	// the trainer applies — driven the way dist.Coordinator drives them.
	d := &distLoopback{spec: distSpec(seed), lanes: 4}
	if d.raw, err = json.Marshal(d.spec); err != nil {
		return err
	}
	dom, err := dist.LookupDomain("pensieve")
	if err != nil {
		return err
	}
	trainer, factory, err := dom.NewTrainer(d.raw, d.lanes)
	if err != nil {
		return err
	}
	states, err := trainer.NewLaneStates(factory, d.lanes)
	if err != nil {
		return err
	}
	steps, err := trainer.LaneSteps(d.lanes)
	if err != nil {
		return err
	}
	lanes := make([]*rl.Lane, d.lanes)
	for i := range lanes {
		if lanes[i], err = dom.NewLane(d.raw, i, d.lanes); err != nil {
			return err
		}
	}
	collect, apply := math.Inf(1), math.Inf(1)
	for iter := 0; iter < 4; iter++ {
		states[0].RNG = trainer.RNGState()
		batches := make([]*rl.RolloutBatch, d.lanes)
		t0 := time.Now()
		for i, lane := range lanes {
			if err := lane.SetParams(trainer.Policy.Params(), trainer.Value.Params()); err != nil {
				return err
			}
			if err := lane.Restore(states[i]); err != nil {
				return err
			}
			if batches[i], err = lane.Collect(i, steps[i]); err != nil {
				return err
			}
			states[i] = batches[i].End
		}
		collect = math.Min(collect, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := trainer.ApplyRemoteRollouts(batches); err != nil {
			return err
		}
		apply = math.Min(apply, time.Since(t0).Seconds())
	}
	l.set("rl.lane_collect_us_per_step", 1e6*collect/float64(trainer.Config().RolloutSteps))
	l.set("rl.apply_remote_ms", 1e3*apply)
	return nil
}

func probeTrace(l *layers, rng *mathx.RNG, data *trace.Dataset, dir string) error {
	l.set("trace.gen_fcc40_ms", 1e3*perCall(1, func() {
		sink += float64(len(trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 40, "fcc").Traces))
	}))
	path := filepath.Join(dir, "fcc40.json")
	if err := data.SaveJSON(path); err != nil {
		return err
	}
	load, err := fastestOf(probeBatches, func() (float64, error) {
		t0 := time.Now()
		_, err := trace.LoadJSON(path)
		return time.Since(t0).Seconds(), err
	})
	l.set("trace.load_json_ms", 1e3*load)
	return err
}

func probeABR(l *layers, rng *mathx.RNG, video *abr.Video, data *trace.Dataset) {
	chunks := video.NumChunks()
	ses := abr.DefaultSessionConfig()
	traces := data.Traces[:8]

	// A whole session per trace on the session's own clock (buffer-based
	// selection is a handful of comparisons, so this is the step itself).
	l.set("abr.session_step_us", 1e6*perCall(len(traces)*chunks, func() {
		for _, tr := range traces {
			s := abr.RunSession(video, &abr.TraceLink{Trace: tr, RTTSeconds: abrRTT}, ses, abr.NewBB())
			sink += s.TotalQoE()
		}
	}))

	link := &abr.TraceLink{Trace: traces[0], RTTSeconds: abrRTT}
	span := traces[0].TotalDuration()
	const n = 20000
	l.set("abr.link_download_ns", 1e9*perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += link.Download(video.Size(i%video.Levels(), i%chunks), math.Mod(float64(i)*1.7, span))
		}
	}))

	bw := []float64{1.2, 3.4, 0.9, 2.5} // the adversary's reward window is 4 chunks
	const wn = 500
	l.set("abr.window_optimal_us", 1e6*perCall(wn, func() {
		for i := 0; i < wn; i++ {
			sink += abr.WindowOptimal(video, ses.QoE, i%(chunks-4), bw, abrRTT, 12, ses.BufferCapS, 2)
		}
	}))

	obs := sessionObservations(rng, 64)
	pensieve := abr.NewPensieve(rl.NewCategoricalPolicy(abr.NewPensieveNet(rng, video.Levels())))
	const sn = 4096
	l.set("abr.pensieve_select_us", 1e6*perCall(sn, func() {
		for i := 0; i < sn; i++ {
			sink += float64(pensieve.SelectLevel(&obs[i%len(obs)]))
		}
	}))
	mpc := abr.NewMPC()
	const mn = 256
	l.set("abr.mpc_select_us", 1e6*perCall(mn, func() {
		for i := 0; i < mn; i++ {
			sink += float64(mpc.SelectLevel(&obs[i%len(obs)]))
		}
	}))

	// ApplyChunk on lean sessions, as the swarm's external clock calls it.
	lean := ses
	lean.HistoryCap = swarm.DefaultHistoryCap
	const sessions = 200
	l.set("abr.apply_chunk_ns", 1e9*perCall(sessions*chunks, func() {
		for s := 0; s < sessions; s++ {
			session := abr.NewSession(video, &abr.ConstantLink{BandwidthMbps: 3, RTTSeconds: abrRTT}, lean)
			for c := 0; c < chunks; c++ {
				sink += session.ApplyChunk(c%video.Levels(), 1.5, 3).QoE
			}
		}
	}))
}

func probeEnvs(l *layers, rng *mathx.RNG, video *abr.Video) {
	agent := abr.NewPensieve(rl.NewCategoricalPolicy(abr.NewPensieveNet(rng, video.Levels())))
	aenv := core.NewABREnv(video, agent, core.DefaultABRAdversaryConfig())
	aenv.Reset()
	const an = 2000
	l.set("core.abr_env_step_us", 1e6*perCall(an, func() {
		for i := 0; i < an; i++ {
			if _, _, done := aenv.Step([]float64{rng.Uniform(-1, 1)}); done {
				aenv.Reset()
			}
		}
	}))

	cenv := core.NewCCEnv(newBBR, core.DefaultCCAdversaryConfig(), rng.Split())
	cenv.Reset()
	const cn = 1000
	l.set("core.cc_env_step_us", 1e6*perCall(cn, func() {
		for i := 0; i < cn; i++ {
			if _, _, done := cenv.Step([]float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)}); done {
				cenv.Reset()
			}
		}
	}))
}

func probeNetem(l *layers, rng *mathx.RNG) {
	// BBR on a steady mid-range link (Table 1 midpoints, no loss), stepped
	// in the adversary's 30 ms intervals.
	mid := netem.Conditions{BandwidthMbps: 15, OneWayDelayMs: 37.5}
	cfg := netem.Config{Initial: mid, QueuePackets: 128}
	const intervals = 400
	var pkts float64
	perInterval := perCall(intervals, func() {
		em := netem.New(cc.NewBBR(), cfg, rng.Split())
		for i := 1; i <= intervals; i++ {
			em.Run(float64(i) * 0.03)
		}
		pkts = float64(em.Stats().Sent)
	})
	l.set("netem.interval_us", 1e6*perInterval)
	l.set("netem.pkt_ns", 1e9*perInterval*intervals/pkts)
	objects, _ := mallocs(func() {
		em := netem.New(cc.NewBBR(), cfg, rng.Split())
		for i := 1; i <= intervals; i++ {
			em.Run(float64(i) * 0.03)
		}
	})
	l.set("netem.allocs_per_interval", objects/intervals)

	const events = 50000
	l.set("netem.multi_event_ns", 1e9*perCall(events, func() {
		flows := make([]netem.CongestionController, 4)
		for i := range flows {
			flows[i] = cc.NewCubic()
		}
		m := netem.NewMulti(flows, cfg, rng.Split())
		for i := 0; i < events; i++ {
			if !m.StepEvent(math.Inf(1)) {
				panic("e2e: multi-flow emulator ran out of events")
			}
		}
	}))

	// The scheduler at a steady depth of 512 pending events.
	var q vclock.Queue
	q.Grow(1024)
	for i := 0; i < 512; i++ {
		q.Schedule(vclock.Event{At: rng.Float64()})
	}
	const pops = 50000
	l.set("vclock.sched_pop_ns", 1e9*perCall(pops, func() {
		for i := 0; i < pops; i++ {
			ev, _ := q.Pop()
			ev.At += rng.Float64()
			q.Schedule(ev)
		}
	}))

	tr := trace.StepPattern("steps", 30, [2]float64{3, 12}, [2]float64{3, 6}, [2]float64{3, 20})
	l.set("cc.run_trace_ms", 1e3*perCall(1, func() {
		sink += cc.MeanUtilization(cc.RunTrace(cc.NewCubic(), tr, netem.Config{QueuePackets: 128}, rng.Split(), 0.03))
	}))
}

func probeSwarm(l *layers, rng *mathx.RNG, video *abr.Video, seed uint64) error {
	group := swarm.GroupConfig{
		Clients: 12000 / 192, Video: video, NewProtocol: mixedProtocols,
		CapacityMbps: 40, RTTSeconds: abrRTT, StartWindowS: 30,
	}
	var setupS, stepS, events, allocKB float64
	setupS, stepS = math.Inf(1), math.Inf(1)
	for i := 0; i < probeBatches; i++ {
		var g *swarm.Group
		var err error
		t0 := time.Now()
		_, bytes := mallocs(func() { g, err = swarm.NewGroup(group, rng.Split()) })
		setupS = math.Min(setupS, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		allocKB = bytes / 1e3
		t0 = time.Now()
		if err := g.RunToCompletion(); err != nil {
			return err
		}
		stepS = math.Min(stepS, time.Since(t0).Seconds())
		events = float64(g.Events())
	}
	l.set("swarm.event_ns", 1e9*stepS/events)
	l.set("swarm.group_setup_us_per_client", 1e6*setupS/float64(group.Clients))
	l.set("swarm.alloc_kb_per_client", allocKB/float64(group.Clients))

	// An eighth of the workload's swarm, with one worker and with two.
	cfg := swarmConfig(seed, 1500, 24)
	var res *swarm.Result
	timeRun := func(workers int) (float64, error) {
		cfg.Workers = workers
		return fastestOf(3, func() (float64, error) {
			t0 := time.Now()
			var err error
			res, err = runSwarm(cfg)
			return time.Since(t0).Seconds(), err
		})
	}
	w1, err := timeRun(1)
	if err != nil {
		return err
	}
	w2, err := timeRun(2)
	if err != nil {
		return err
	}
	l.set("swarm.events_per_client", float64(res.Events)/float64(res.Clients))
	l.set("swarm.w2_speedup", w1/w2)

	// The packet-level backend: one group of four Cubic clients.
	packet := group
	packet.Clients = 4
	packet.CapacityMbps = 8
	packet.Backend = swarm.NetemBackend
	packet.NewCC = func() netem.CongestionController { return cc.NewCubic() }
	packet.OneWayDelayMs = 20
	perEvent, err := fastestOf(3, func() (float64, error) {
		g, err := swarm.NewGroup(packet, rng.Split())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = g.RunToCompletion()
		return time.Since(t0).Seconds() / float64(g.Events()), err
	})
	l.set("swarm.netem_event_ns", 1e9*perEvent)
	return err
}

func probeServe(l *layers, seed uint64) error {
	inst, err := setupServeMix(seed)
	if err != nil {
		return err
	}
	s := inst.(*serveMix)
	defer s.close()

	// One paced segment on a fresh engine, so the engine's own latency
	// reservoir holds paced requests only.
	if _, _, err := s.interlude(0, false); err != nil {
		return err
	}
	st := s.eng.Stats()
	l.set("serve.engine_p50_us", st.Latency.P50)
	l.set("serve.engine_p99_us", st.Latency.P99)
	l.set("serve.paced_p90_us", quantile(s.latUS, 0.90))
	l.set("serve.paced_p99_us", quantile(s.latUS, 0.99))
	l.set("serve.paced_late_p99_us", quantile(s.lateUS, 0.99))

	// Saturation: three units, median.
	served, batches := s.eng.Served(), s.eng.Batches()
	var unitS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := s.unit(nil); err != nil {
			return err
		}
		unitS = append(unitS, time.Since(t0).Seconds())
	}
	l.set("serve.sat_req_per_s", float64(len(s.satIdx))/median(unitS))
	l.set("serve.avg_batch", float64(s.eng.Served()-served)/float64(s.eng.Batches()-batches))

	// Closed loops of 1 and 32 callers on pre-encoded features: the engine
	// alone, without the callers' encoding.
	feats := make([][]float64, len(s.obs))
	for i := range feats {
		feats[i] = abr.Features(&s.obs[i])
	}
	const lone = 500
	lat := make([]float64, 0, lone)
	objects, _ := mallocs(func() {
		for i := 0; i < lone; i++ {
			t0 := time.Now()
			if _, err = s.eng.Select(feats[i%len(feats)]); err != nil {
				return
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	if err != nil {
		return err
	}
	l.set("serve.lone_p50_us", median(lat))
	l.set("serve.allocs_per_req", objects/lone)

	const callers, each = 32, 400
	errs := make(chan error, callers) // one slot per caller
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		go func(c int) {
			for i := 0; i < each; i++ {
				if _, err := s.eng.Select(feats[(c*each+i)%len(feats)]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	l.set("serve.c32_req_per_s", callers*each/time.Since(t0).Seconds())
	l.set("serve.shed_share", s.eng.Stats().ShedRate())

	l.set("serve.publish_us", 1e6*perCall(1, func() {
		if _, err = s.reg.Publish(s.net, "probe"); err != nil {
			panic(err) // same architecture by construction
		}
	}))
	const pn = 2000
	l.set("serve.predict_us", 1e6*perCall(pn, func() {
		for i := 0; i < pn; i++ {
			sink += s.net.Predict(feats[i%len(feats)])[0]
		}
	}))
	return nil
}

func probeDist(l *layers, seed uint64) error {
	inst, err := setupDistLoopback(seed)
	if err != nil {
		return err
	}
	d := inst.(*distLoopback)

	iterS, firstS, unitS := math.Inf(1), math.Inf(1), math.Inf(1)
	var wire, reassigned float64
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		last := t0
		c, err := d.run(nil, d.iters, func(iter int, _ rl.IterStats) {
			now := time.Now()
			if iter == 0 {
				firstS = math.Min(firstS, now.Sub(t0).Seconds())
			} else {
				iterS = math.Min(iterS, now.Sub(last).Seconds())
			}
			last = now
		})
		if err != nil {
			return err
		}
		unitS = math.Min(unitS, time.Since(t0).Seconds())
		wire = float64(c.WireBytes())
		reassigned += float64(c.Reassignments())
	}
	l.set("dist.iter_ms", 1e3*iterS)
	// What precedes the first iteration's own work: bind, dial, handshake,
	// lane construction on the worker, first parameter broadcast.
	l.set("dist.connect_ms", 1e3*(firstS-iterS))
	l.set("dist.wire_kb_per_iter", wire/1e3/float64(d.iters))
	l.set("dist.reassignments", reassigned)

	vecS, err := fastestOf(2, func() (float64, error) {
		t0 := time.Now()
		_, err := d.vecReference()
		return time.Since(t0).Seconds(), err
	})
	l.set("dist.vs_vec_ratio", unitS/vecS)
	return err
}

func probeSmall(l *layers, dir string) error {
	res := stats.NewReservoir(0, 1)
	const n = 200000
	l.set("stats.reservoir_add_ns", 1e9*perCall(n, func() {
		for i := 0; i < n; i++ {
			res.Add(float64(i))
		}
	}))
	timer := metrics.NewRegistry("probe").Timer("t", metrics.LowerIsBetter("s"))
	l.set("metrics.timer_observe_ns", 1e9*perCall(n, func() {
		for i := 0; i < n; i++ {
			timer.ObserveSeconds(float64(i))
		}
	}))
	data := make([]byte, 64<<10) // about one Pensieve checkpoint
	path := filepath.Join(dir, "atomic.bin")
	write, err := fastestOf(5, func() (float64, error) {
		t0 := time.Now()
		err := fsx.WriteFileAtomic(path, data, 0o644)
		return time.Since(t0).Seconds(), err
	})
	l.set("fsx.write_atomic_ms", 1e3*write)
	return err
}
