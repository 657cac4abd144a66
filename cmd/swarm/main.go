// Command swarm simulates a swarm of concurrent ABR clients sharing
// bottleneck links on one virtual clock and reports machine-readable QoE,
// fairness, and throughput telemetry. It is the scale harness: 100k+
// concurrent sessions on one machine with a deterministic outcome: groups
// fan out over GOMAXPROCS goroutines, which changes no result.
//
// Usage:
//
//	swarm -clients 100000 -groups 1024 -capacity 40 -json swarm.json
//	swarm -clients 64 -groups 4 -backend netem -cc cubic -loss 0.01
//	swarm -clients 5000 -traces traces.json    # capacity from a trace file
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/netem"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/serve"
	"advnet/internal/swarm"
	"advnet/internal/trace"
)

// protocolFactory parses a protocol spec: one name, a comma-separated list
// (clients round-robin through it), or "mixed" (= bb,rate,bola,mpc — note
// MPC's exhaustive lookahead makes it ~50x costlier per decision than the
// heuristics, which dominates wall time at 100k-client scale).
func protocolFactory(spec string) (func(int) abr.Protocol, error) {
	if spec == "mixed" {
		spec = "bb,rate,bola,mpc"
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if _, err := abr.New(names[i]); err != nil {
			return nil, fmt.Errorf("%w, comma-separable, or mixed", err)
		}
	}
	return func(i int) abr.Protocol { p, _ := abr.New(names[i%len(names)]); return p }, nil
}

func main() {
	log.SetFlags(0)
	clients := flag.Int("clients", 100_000, "total simulated viewers")
	groups := flag.Int("groups", 1024, "independent shared bottlenecks")
	seed := flag.Uint64("seed", 1, "master seed; same seed = bitwise-identical report")
	protocol := flag.String("protocol", "mixed", "ABR protocol per client: "+abr.Names()+", comma-separable, mixed, or serve (all clients share one policy-serving engine)")
	policyPath := flag.String("policy", "", "policy file for -protocol serve (empty = fresh random Pensieve net from -seed)")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "per-decision serving deadline for -protocol serve (shed decisions fall back to BB); 0 disables")
	serveWorkers := flag.Int("serve-workers", 0, "engine shards for -protocol serve (0 = GOMAXPROCS)")
	capacity := flag.Float64("capacity", 40, "per-group bottleneck capacity in Mbps (ignored with -traces)")
	tracesPath := flag.String("traces", "", "trace dataset JSON; group g replays trace g mod len cyclically")
	chunks := flag.Int("chunks", 48, "video length in chunks")
	rtt := flag.Float64("rtt", 0.08, "per-chunk request RTT in seconds (fluid backend)")
	window := flag.Float64("window", 30, "client start stagger window in seconds")
	backend := flag.String("backend", "fluid", "bottleneck model: fluid|netem")
	ccName := flag.String("cc", "cubic", "congestion controller per client (netem backend): "+cc.Names())
	delay := flag.Float64("delay", 20, "one-way propagation delay in ms (netem backend)")
	loss := flag.Float64("loss", 0, "random loss rate (netem backend)")
	queue := flag.Int("queue", 64, "bottleneck queue in packets (netem backend)")
	jsonOut := flag.String("json", "", "write the machine-readable report here (unified schema, DESIGN.md §8.6)")
	flag.Parse()

	videoCfg := abr.DefaultVideoConfig()
	videoCfg.NumChunks = *chunks

	// -protocol serve routes every client's decision through one shared
	// policy-serving engine, measuring the serving stack under the swarm's
	// realistic interarrivals; shed decisions degrade to the BB fallback.
	var newProto func(int) abr.Protocol
	var serveMode *swarm.ServeMode
	if *protocol == "serve" {
		var net *nn.MLP
		var err error
		if *policyPath != "" {
			if net, err = rl.LoadPolicyNet(*policyPath); err != nil {
				log.Fatal(err)
			}
		} else {
			net = abr.NewPensieveNet(mathx.NewRNG(*seed), len(videoCfg.BitratesKbps))
		}
		eng, err := serve.NewEngine(serve.NewRegistry(net), serve.Config{Workers: *serveWorkers, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		serveMode = swarm.NewServeMode(eng, *deadline)
		newProto = serveMode.NewProtocol
	} else {
		var err error
		if newProto, err = protocolFactory(*protocol); err != nil {
			log.Fatal(err)
		}
	}

	cfg := swarm.Config{
		Clients:      *clients,
		Groups:       *groups,
		Seed:         *seed,
		Video:        videoCfg,
		NewProtocol:  newProto,
		CapacityMbps: *capacity,
		RTTSeconds:   *rtt,
		StartWindowS: *window,
	}
	switch *backend {
	case "fluid":
	case "netem":
		cfg.Backend = swarm.NetemBackend
		cfg.OneWayDelayMs = *delay
		cfg.LossRate = *loss
		cfg.QueuePackets = *queue
		if _, err := cc.New(*ccName); err != nil {
			log.Fatal(err)
		}
		cfg.NewCC = func() netem.CongestionController { c, _ := cc.New(*ccName); return c }
	default:
		log.Fatalf("unknown backend %q (fluid|netem)", *backend)
	}
	if *tracesPath != "" {
		ds, err := trace.LoadJSON(*tracesPath)
		if err != nil {
			log.Fatal(err)
		}
		if len(ds.Traces) == 0 {
			log.Fatalf("trace dataset %s is empty", *tracesPath)
		}
		// One shared-capacity schedule for every group keeps the CLI
		// simple; per-group traces are a library-level Config choice.
		cfg.Trace = ds.Traces[0]
	}

	start := time.Now()
	res, err := swarm.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		// Contained group failures still produce a report; anything else
		// (config rejection) is fatal.
		if res == nil {
			log.Fatal(err)
		}
		log.Printf("swarm: %d group(s) failed: %v", len(res.FailedGroups), err)
	}

	// The -json report under the unified schema (DESIGN.md §8.6).
	reg := metrics.NewRegistry("swarm")
	reg.SetConfig("clients", *clients)
	reg.SetConfig("groups", *groups)
	reg.SetConfig("workers", runtime.GOMAXPROCS(0))
	reg.SetConfig("seed", *seed)
	reg.SetConfig("protocol", *protocol)
	reg.SetConfig("backend", *backend)
	if *backend == "netem" {
		reg.SetConfig("cc", *ccName)
	}
	reg.SetConfig("capacity_mbps", *capacity)
	if *tracesPath != "" {
		reg.SetConfig("traces", *tracesPath)
	}
	reg.SetConfig("chunks", *chunks)
	res.EmitMetrics(reg, wall.Seconds())
	if serveMode != nil {
		reg.SetConfig("serve_deadline_us", float64(*deadline)/float64(time.Microsecond))
		serveMode.EmitMetrics(reg)
	}

	speedup := res.VirtualSeconds / wall.Seconds()
	eventsPerSec := float64(res.Events) / wall.Seconds()
	fmt.Printf("swarm:    %d clients / %d groups completed in %.2fs wall (%.0fs virtual, %.0fx real time)\n",
		res.CompletedClients, *groups-len(res.FailedGroups), wall.Seconds(), res.VirtualSeconds, speedup)
	fmt.Printf("events:   %d (%.0f events/s)\n", res.Events, eventsPerSec)
	fmt.Printf("qoe:      per-client mean %.3f p50 %.3f p95 %.3f\n",
		res.QoEPerClient.Mean, res.QoEPerClient.P50, res.QoEPerClient.P95)
	fmt.Printf("rebuffer: per-client mean %.2fs p95 %.2fs\n",
		res.RebufferPerClient.Mean, res.RebufferPerClient.P95)
	fmt.Printf("fairness: Jain %.4f (per-group p50 %.4f)\n", res.Jain, res.GroupJain.P50)
	if serveMode != nil {
		p := serveMode.Proto()
		fmt.Printf("serving:  %d decisions, %d fallbacks (%.4f rate), %d shed by engine\n",
			p.Decisions(), p.Fallbacks(), p.FallbackRate(), p.Engine().Shed())
	}

	if *jsonOut != "" {
		if err := reg.WriteJSON(*jsonOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report:   %s\n", *jsonOut)
	}
}
