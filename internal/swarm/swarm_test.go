package swarm

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/par"
	"advnet/internal/trace"
)

func testTrace() *trace.Trace {
	return &trace.Trace{Name: "swarm-test", Points: []trace.Point{
		{Duration: 20, BandwidthMbps: 30},
		{Duration: 10, BandwidthMbps: 8},
		{Duration: 15, BandwidthMbps: 50},
		{Duration: 5, BandwidthMbps: 0}, // outage: fluid transfers stall
		{Duration: 20, BandwidthMbps: 25},
	}}
}

func mixedProtocols(i int) abr.Protocol {
	switch i % 3 {
	case 0:
		return abr.NewBB()
	case 1:
		return abr.NewRateBased()
	default:
		return abr.NewBOLA()
	}
}

func fluidConfig(workers int) Config {
	return Config{
		Clients:      90,
		Groups:       7,
		Workers:      workers,
		Seed:         42,
		Video:        abr.VideoConfig{NumChunks: 24, ChunkSeconds: 4, BitratesKbps: []float64{300, 750, 1200, 1850, 2850, 4300}, VBRJitter: 0.1},
		NewProtocol:  mixedProtocols,
		Trace:        testTrace(),
		RTTSeconds:   0.08,
		StartWindowS: 12,
	}
}

// TestSwarmDeterministicAcrossWorkers pins the determinism contract: the
// same seed must produce a bitwise-identical Result for any worker count.
func TestSwarmDeterministicAcrossWorkers(t *testing.T) {
	var base *Result
	for _, w := range []int{1, 3, 8, 64} {
		res, err := Run(fluidConfig(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.CompletedClients != 90 {
			t.Fatalf("workers=%d: completed %d of 90 clients", w, res.CompletedClients)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("workers=%d: result diverged from workers=1:\n%+v\nvs\n%+v", w, res, base)
		}
	}
}

// TestSwarmSameSeedTwice pins same-seed reproducibility of a single
// configuration across two fresh runs of the whole pipeline.
func TestSwarmSameSeedTwice(t *testing.T) {
	a, err := Run(fluidConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fluidConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg := fluidConfig(4)
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical results")
	}
}

// TestSwarmGroupPanicContainment builds group 2's clients with a protocol
// constructor that panics and checks the swarm survives: the error names the
// group, and every other group's clients still complete and aggregate.
func TestSwarmGroupPanicContainment(t *testing.T) {
	cfg := fluidConfig(3)
	// 90 clients over 7 groups: groups 0..5 have 13, so group 2 holds
	// global clients 26..38.
	cfg.NewProtocol = func(client int) abr.Protocol {
		if client >= 26 && client < 39 {
			panic("injected group failure")
		}
		return mixedProtocols(client)
	}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("expected an error from the failed group")
	}
	var gp *par.PanicError
	if !errors.As(err, &gp) {
		t.Fatalf("error is not a par.PanicError: %v", err)
	}
	if gp.Index != 2 {
		t.Fatalf("panic attributed to group %d, want 2", gp.Index)
	}
	if len(res.FailedGroups) != 1 || res.FailedGroups[0] != 2 {
		t.Fatalf("FailedGroups = %v, want [2]", res.FailedGroups)
	}
	// 90 clients over 7 groups: groups 0..5 have 13, group 6 has 12.
	if want := 90 - 13; res.CompletedClients != want {
		t.Fatalf("completed %d clients, want %d", res.CompletedClients, want)
	}
	if res.QoEPerClient.Count != uint64(res.CompletedClients) {
		t.Fatalf("QoEPerClient.Count = %d, want %d", res.QoEPerClient.Count, res.CompletedClients)
	}
}

// TestSwarmFluidFairShare: identical clients racing from t=0 on one
// constant-capacity bottleneck must receive exactly equal service.
func TestSwarmFluidFairShare(t *testing.T) {
	res, err := Run(Config{
		Clients:      8,
		Groups:       1,
		Workers:      1,
		Seed:         7,
		CapacityMbps: 24,
		RTTSeconds:   0.05,
		StartWindowS: 0, // everyone starts together
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedClients != 8 {
		t.Fatalf("completed %d of 8", res.CompletedClients)
	}
	if res.Jain < 0.999999 {
		t.Errorf("Jain = %v for identical synchronized clients, want ~1", res.Jain)
	}
	if res.BitsPerClient.Min != res.BitsPerClient.Max {
		t.Errorf("identical clients delivered unequal bits: min %v max %v", res.BitsPerClient.Min, res.BitsPerClient.Max)
	}
	if !(res.VirtualSeconds > 0) || math.IsInf(res.VirtualSeconds, 0) {
		t.Errorf("VirtualSeconds = %v", res.VirtualSeconds)
	}
}

// TestSwarmGroupConservesCapacity: with the bottleneck saturated, total
// delivered bits cannot exceed capacity × elapsed time (plus slack for the
// final partially-idle tail), and must be a large fraction of it.
func TestSwarmGroupConservesCapacity(t *testing.T) {
	const capMbps = 12.0
	res, err := Run(Config{
		Clients:      32,
		Groups:       1,
		Workers:      1,
		Seed:         3,
		CapacityMbps: capMbps,
		RTTSeconds:   0.04,
		StartWindowS: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.BitsPerClient.Mean * float64(res.BitsPerClient.Count)
	budget := capMbps * 1e6 * res.VirtualSeconds
	if total > budget*1.0001 {
		t.Errorf("delivered %.3g bits > capacity budget %.3g", total, budget)
	}
	// 32 clients competing for 12 Mbps keeps the link essentially saturated.
	if total < 0.5*budget {
		t.Errorf("delivered %.3g bits, under half the %.3g capacity budget — the fluid scheduler is leaking service", total, budget)
	}
}

// TestSwarmNetemBackend runs ABR over per-client congestion-control flows
// on the shared packet emulator — the composition the unified clock exists
// for — and checks completion plus cross-run determinism.
func TestSwarmNetemBackend(t *testing.T) {
	cfg := Config{
		Clients:       6,
		Groups:        2,
		Workers:       2,
		Seed:          11,
		Video:         abr.VideoConfig{NumChunks: 8, ChunkSeconds: 4, BitratesKbps: []float64{300, 750, 1200}, VBRJitter: 0.1},
		CapacityMbps:  10,
		Backend:       NetemBackend,
		NewCC:         func() netem.CongestionController { return cc.NewReno() },
		OneWayDelayMs: 15,
		LossRate:      0.01,
		QueuePackets:  64,
		StartWindowS:  4,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletedClients != 6 {
		t.Fatalf("completed %d of 6 netem clients", a.CompletedClients)
	}
	if !(a.Jain > 0.5) {
		t.Errorf("netem swarm Jain = %v, implausibly unfair", a.Jain)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("netem swarm not reproducible:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSwarmConfigValidation covers the rejection paths.
func TestSwarmConfigValidation(t *testing.T) {
	cases := []Config{
		{Clients: 0},
		{Clients: 4, Groups: 8, CapacityMbps: 10},
		{Clients: 4, CapacityMbps: 0},
		{Clients: 4, CapacityMbps: -3},
		{Clients: 4, Trace: &trace.Trace{Name: "empty"}},
		{Clients: 4, Trace: &trace.Trace{Name: "dead", Points: []trace.Point{{Duration: 5, BandwidthMbps: 0}}}},
		{Clients: 4, Trace: &trace.Trace{Name: "badDur", Points: []trace.Point{{Duration: 0, BandwidthMbps: 5}}}},
		{Clients: 4, CapacityMbps: 10, Backend: NetemBackend}, // no NewCC
		{Clients: 4, CapacityMbps: 10, RTTSeconds: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: config %+v unexpectedly accepted", i, cfg)
		}
	}
}

// newSteadyGroup builds a large fluid group mid-simulation for allocation
// and throughput measurements: a long video keeps every client active.
func newSteadyGroup(tb testing.TB, clients int) *Group {
	tb.Helper()
	rng := mathx.NewRNG(99)
	video := abr.NewVideo(rng, abr.VideoConfig{
		NumChunks:    200000,
		ChunkSeconds: 4,
		BitratesKbps: []float64{300, 750, 1200, 1850, 2850, 4300},
		VBRJitter:    0.1,
	})
	g, err := NewGroup(GroupConfig{
		Clients:      clients,
		Video:        video,
		CapacityMbps: float64(clients) * 1.5,
		RTTSeconds:   0.05,
		StartWindowS: 30,
	}, rng.Split())
	if err != nil {
		tb.Fatal(err)
	}
	// Warm past every one-time allocation: each client's lean history
	// buffer appears on its first applied chunk.
	for i := 0; i < 40*clients; i++ {
		if !g.Step(math.Inf(1)) {
			tb.Fatal("group drained during warmup")
		}
	}
	return g
}

// TestSwarmGroupSteadyStateAllocs pins the swarm hot loop at zero
// allocations per event — the property that makes 100k sessions viable.
func TestSwarmGroupSteadyStateAllocs(t *testing.T) {
	g := newSteadyGroup(t, 256)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			if !g.Step(math.Inf(1)) {
				t.Fatal("group drained mid-measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state swarm loop allocates: %v allocs per 64 events", avg)
	}
}

// BenchmarkSwarmGroupEvent measures the per-event cost of the fluid
// scheduler at a realistic in-group population (bench/e2e's swarm.event_ns
// probe is the tracked number).
func BenchmarkSwarmGroupEvent(b *testing.B) {
	for _, clients := range []int{256, 4096} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			g := newSteadyGroup(b, clients)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !g.Step(math.Inf(1)) {
					b.Fatal("group drained")
				}
			}
		})
	}
}
