// Command serve storms the policy-serving inference engine and reports
// machine-readable performance telemetry: throughput, realized batching
// density, and p50/p95/p99 serving latency, plus the single-request Predict
// baseline the batched path is measured against — and, since the graceful-
// degradation layer, an overload phase that saturates a deliberately
// starved engine behind per-request deadlines and reports shed-rate,
// fallback-rate, and client-observed decision latency, plus a scripted
// reload-chaos phase that trips and recovers the circuit breaker.
//
// Usage:
//
//	serve -policy pensieve.json -storm 64 -n 200000 -json serve.json
//	serve -levels 6 -workers 2 -batch 32      # fresh random net, stdout only
//	serve -deadline 500us -overstorm 256      # overload-phase knobs
//
// The -policy file is a policy envelope (robustify -o) or a PPO trainer
// checkpoint; bare MLP JSON no longer loads.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/serve"
	"advnet/internal/stats"
)

func main() {
	log.SetFlags(0)
	policyPath := flag.String("policy", "", "policy network to serve (policy envelope or trainer checkpoint); empty = fresh random Pensieve net")
	levels := flag.Int("levels", 6, "bitrate-ladder size when synthesizing a fresh net (ignored with -policy)")
	workers := flag.Int("workers", 0, "engine shards, each gathered by its callers (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 32, "max batch per flush (and each shard's cache capacity)")
	storm := flag.Int("storm", 64, "concurrent client goroutines")
	n := flag.Int("n", 200_000, "total requests across the storm")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "per-request deadline in the overload phase (0 skips the phase)")
	overstorm := flag.Int("overstorm", 96, "concurrent clients saturating the starved overload engine")
	jsonOut := flag.String("json", "", "write the machine-readable report here (unified schema, DESIGN.md §8.6)")
	seed := flag.Uint64("seed", 1, "seed for the synthesized net and request features")
	flag.Parse()

	rng := mathx.NewRNG(*seed)
	var net *nn.MLP
	if *policyPath != "" {
		var err error
		if net, err = rl.LoadPolicyNet(*policyPath); err != nil {
			log.Fatal(err)
		}
	} else {
		net = abr.NewPensieveNet(rng, *levels)
	}

	cfg := serve.Config{Workers: *workers, MaxBatch: *batch, Seed: *seed}
	eng, err := serve.NewEngine(serve.NewRegistry(net), cfg)
	if err != nil {
		log.Fatal(err)
	}
	in := eng.InputSize()

	// One shared feature pool: request cost must be serving, not generation.
	feats := make([][]float64, 256)
	for i := range feats {
		feats[i] = make([]float64, in)
		for j := range feats[i] {
			feats[i][j] = rng.Uniform(-1, 1)
		}
	}

	// Storm phase.
	perClient := *n / *storm
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < *storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := eng.Select(feats[(g+i)%len(feats)]); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	st := eng.Stats()
	eng.Close()

	// Baseline phase: single-goroutine, single-request Predict (the
	// pre-engine serving path: one allocation-heavy forward pass per chunk).
	baseN := min(*n, 100_000)
	bStart := time.Now()
	for i := 0; i < baseN; i++ {
		_ = mathx.ArgMax(net.Predict(feats[i%len(feats)]))
	}
	bWall := time.Since(bStart)

	// The -json report under the unified schema (DESIGN.md §8.6).
	reg := metrics.NewRegistry("serve")
	reg.SetConfig("workers", st.Workers)
	reg.SetConfig("max_batch", *batch)
	reg.SetConfig("storm", *storm)
	reg.SetConfig("requests", perClient**storm)
	reg.SetConfig("arch", net.Sizes())
	if *policyPath != "" {
		reg.SetConfig("policy", *policyPath)
	}
	st.EmitMetrics(reg, wall.Seconds())
	engineRPS := float64(st.Served) / wall.Seconds()
	baselineRPS := float64(baseN) / bWall.Seconds()
	reg.SetMetric("baseline_requests", float64(baseN), metrics.Info("requests"))
	reg.SetMetric("baseline_rps", baselineRPS, metrics.Info("req/s"))
	reg.SetMetric("speedup_over_predict", engineRPS/baselineRPS, metrics.HigherIsBetter("x"))

	fmt.Printf("engine:   %.0f req/s over %d requests (workers=%d batch≤%d avg batch %.1f)\n",
		engineRPS, st.Served, st.Workers, *batch, st.AvgBatch)
	fmt.Printf("latency:  %s (µs, enqueue→computed)\n", st.Latency)
	fmt.Printf("baseline: %.0f req/s single-request Predict\n", baselineRPS)
	fmt.Printf("speedup:  %.2fx\n", engineRPS/baselineRPS)

	if *deadline > 0 {
		overloadPhase(reg, net, rng, *batch, *deadline, *overstorm, *n, *seed)
	}
	breakerPhase(reg, net, rng)

	if *jsonOut != "" {
		if err := reg.WriteJSON(*jsonOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report:   %s\n", *jsonOut)
	}
}

// overloadPhase measures the degradation contract (DESIGN.md §8.7): a
// deliberately starved engine — one shard, a queue no deeper than one batch,
// serving a model too slow for its load — is saturated by a closed loop of
// overstorm clients, each request carrying a deadline. Shed decisions
// degrade to PensieveServe's BB fallback, so every client still gets an
// answer, and the client-observed decision latency (served and degraded
// alike) is bounded near the deadline instead of growing with the backlog.
// The phase emits the degradation metric group: shed/fallback rates and the
// decision-latency distribution.
func overloadPhase(reg *metrics.Registry, net *nn.MLP, rng *mathx.RNG, batch int, deadline time.Duration, overstorm, n int, seed uint64) {
	levels := net.InputSize() - abr.FeatureSize(0)
	if levels <= 0 || net.InputSize() != abr.FeatureSize(levels) || net.OutputSize() != levels {
		fmt.Printf("overload: skipped (architecture %v is not a Pensieve policy; no ladder to degrade onto)\n", net.Sizes())
		return
	}

	// In-process clients cannot outrun a real GEMM shard on the served net,
	// so this phase serves a net with the same inputs and outputs over two
	// 1024-wide hidden layers: about a million multiply-adds per decision
	// (the default Pensieve net needs under four thousand), which puts the
	// offered closed-loop load at a multiple of the shard's capacity.
	slow := nn.NewMLP(rng.Split(), []int{net.InputSize(), 1024, 1024, levels}, nn.Tanh)

	// One shard with a one-batch queue: capacity is one core's GEMM rate,
	// and the closed loop of overstorm clients offers far more than that.
	eng, err := serve.NewEngine(serve.NewRegistry(slow), serve.Config{
		Workers: 1, MaxBatch: batch, QueueDepth: batch,
		DefaultDeadline: deadline, Seed: seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	ps := abr.NewPensieveServe(eng)

	video := abr.NewVideo(rng.Split(), abr.DefaultVideoConfig())
	// The phase runs at forward-pass-dominated (ms) timescales; cap its
	// volume so the degradation group costs seconds, not the full -n storm's
	// budget.
	perClient := max(min(n, 20_000)/overstorm, 1)
	lats := make([]*stats.Reservoir, overstorm)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < overstorm; g++ {
		lats[g] = stats.NewReservoir(0, seed+uint64(g)+2)
		wg.Add(1)
		go func(g int, crng *mathx.RNG) {
			defer wg.Done()
			// Each client mutates its private observation per decision —
			// the shape a real session would produce, driven by RNG state.
			o := &abr.Observation{
				TotalChunks:    video.NumChunks(),
				Levels:         levels,
				BitratesKbps:   video.BitratesKbps,
				ChunkSeconds:   video.ChunkSeconds,
				LastLevel:      -1,
				NextSizesBits:  make([]float64, levels),
				ThroughputHist: make([]float64, 0, abr.FeatureHistory),
				DownloadHist:   make([]float64, 0, abr.FeatureHistory),
			}
			for i := 0; i < perClient; i++ {
				o.ChunkIndex = i % video.NumChunks()
				o.BufferS = crng.Uniform(0, 20)
				copy(o.NextSizesBits, video.ChunkSizes(o.ChunkIndex))
				if len(o.ThroughputHist) == abr.FeatureHistory {
					o.ThroughputHist = o.ThroughputHist[1:]
					o.DownloadHist = o.DownloadHist[1:]
				}
				o.ThroughputHist = append(o.ThroughputHist, crng.Uniform(0.3, 6))
				o.DownloadHist = append(o.DownloadHist, crng.Uniform(0.5, 6))
				t0 := time.Now()
				o.LastLevel = ps.SelectLevel(o)
				lats[g].Add(float64(time.Since(t0)) / float64(time.Microsecond))
			}
		}(g, rng.Split())
	}
	wg.Wait()
	owall := time.Since(start)
	ost := eng.Stats()

	offered := ps.Decisions()
	decisionLat := stats.Summarize(lats...)
	reg.SetConfig("overload_deadline_us", float64(deadline)/float64(time.Microsecond))
	reg.SetConfig("overload_storm", overstorm)
	reg.SetConfig("overload_arch", slow.Sizes())
	reg.SetMetric("degradation_offered", float64(offered), metrics.Info("requests"))
	reg.SetMetric("degradation_served", float64(ost.Served), metrics.Info("requests"))
	reg.SetMetric("degradation_shed", float64(ost.Shed()), metrics.Info("requests"))
	reg.SetMetric("degradation_shed_rate", ost.ShedRate(), metrics.Info("fraction"))
	reg.SetMetric("degradation_fallback_rate", ps.FallbackRate(), metrics.Info("fraction"))
	// The contract metric: decisions stay answered at a bounded latency even
	// with the engine drowning. Gated lower-is-better like any latency.
	reg.SetDistribution("degradation_decision_us", decisionLat, metrics.LowerIsBetter("us"))

	fmt.Printf("overload: %d clients vs 1 starved shard: %.0f req/s offered, shed rate %.3f, fallback rate %.3f (%.2fs)\n",
		overstorm, float64(offered)/owall.Seconds(), ost.ShedRate(), ps.FallbackRate(), owall.Seconds())
	fmt.Printf("degraded: decision p50 %.0fµs p99 %.0fµs max %.0fµs (deadline %v + one forward pass)\n",
		decisionLat.P50, decisionLat.P99, decisionLat.Max, deadline)
}

// breakerPhase scripts a reload outage end to end on a throwaway registry:
// a corrupt checkpoint exhausts the retry budget and trips the breaker
// (last-good snapshot keeps serving), a reload during cooldown is refused
// with the typed open error, and after cooldown the repaired file closes
// the breaker through a half-open probe. The script is deterministic — an
// injected clock drives the cooldown — so its metrics are exact.
func breakerPhase(reg *metrics.Registry, net *nn.MLP, rng *mathx.RNG) {
	dir, err := os.MkdirTemp("", "serve-breaker")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	good := filepath.Join(dir, "good.json")
	if err := rl.SavePolicyNet(good, net); err != nil {
		log.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"version":1,"kind":"policy","sha256":"00","payload":{}}`), 0o644); err != nil {
		log.Fatal(err)
	}

	clock := time.Unix(0, 0)
	breg := serve.NewRegistry(net)
	rel := serve.NewReloader(breg, rng.Split(), serve.ReloadConfig{
		MaxAttempts: 2, TripAfter: 1, Cooldown: 30 * time.Second,
		Sleep: func(d time.Duration) { clock = clock.Add(d) },
		Now:   func() time.Time { return clock },
	})
	lastGood := breg.Current()

	refused := 0
	if _, err := rel.Reload(corrupt); err == nil {
		log.Fatal("breaker phase: corrupt reload succeeded")
	}
	if _, err := rel.Reload(good); err != nil { // inside cooldown: refused
		refused++
	}
	if breg.Current() != lastGood {
		log.Fatal("breaker phase: failed reloads displaced the serving snapshot")
	}
	clock = clock.Add(31 * time.Second) // cooldown elapses
	snap, err := rel.Reload(good)       // half-open probe repairs service
	if err != nil {
		log.Fatalf("breaker phase: recovery probe failed: %v", err)
	}
	rst := rel.Stats()
	reg.SetMetric("breaker_trips", float64(rst.Trips), metrics.Info("trips"))
	reg.SetMetric("breaker_refused", float64(refused), metrics.Info("reloads"))
	reg.SetMetric("breaker_reload_attempts", float64(rst.Attempts), metrics.Info("attempts"))
	reg.SetMetric("breaker_recovered", float64(rst.Reloads), metrics.Info("reloads"))
	fmt.Printf("breaker:  tripped on corrupt checkpoint (%d attempts), refused %d mid-cooldown, recovered to snapshot %d (%s)\n",
		rst.Attempts, refused, snap.ID(), rst.StateStr)
}
