// Package swarm simulates swarms of concurrent ABR clients sharing
// bottleneck links on one event-driven virtual clock.
//
// A swarm is partitioned into groups; each group is an independent shared
// bottleneck (a CDN edge, a last-mile link) whose clients compete for its
// capacity. Groups never interact, which makes them the unit of
// parallelism: worker w simulates groups w, w+W, 2W+w, ... and results are
// merged in group order, so the output is bitwise identical for any worker
// count (the repository-wide determinism contract, DESIGN.md §8.1).
//
// Inside a group, everything — chunk requests, transfer completions,
// capacity-schedule boundaries, and (for the netem backend) individual
// packet events — shares one virtual timeline with a fixed tie-breaking
// order. The fluid backend resolves processor-sharing completions in
// O(log clients) per chunk with an allocation-free steady state, which is
// what lets a single machine carry 100k+ concurrent sessions.
package swarm

import (
	"errors"
	"fmt"
	"runtime"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/par"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

// Config describes a swarm run.
type Config struct {
	Clients int // total simulated viewers across all groups
	Groups  int // independent bottlenecks (0 = 1)
	Workers int // OS parallelism (0 = GOMAXPROCS); never affects results
	Seed    uint64

	Video   abr.VideoConfig   // zero value = abr.DefaultVideoConfig()
	Session abr.SessionConfig // HistoryCap <= 0 is promoted to DefaultHistoryCap

	// NewProtocol builds the ABR protocol for a global client index; nil
	// defaults every client to abr.NewBB. It is called from worker
	// goroutines and must be safe for concurrent use (returning fresh
	// protocol instances is enough).
	NewProtocol func(globalClient int) abr.Protocol

	// Per-group bottleneck parameters (see GroupConfig).
	CapacityMbps float64
	Trace        *trace.Trace
	RTTSeconds   float64
	StartWindowS float64

	Backend       Backend
	NewCC         func() netem.CongestionController // netem backend controller factory
	QueuePackets  int
	OneWayDelayMs float64
	LossRate      float64

	ReservoirCap int
}

// Result aggregates a completed swarm run. Every Summary's Count, Mean, Min
// and Max are exact. Its percentiles are read from reservoir samples: the
// per-chunk ones from the merged per-group reservoirs, the per-client ones
// from one reservoir per distribution, so they are exact only while the
// stream fits (Clients <= ReservoirCap for the per-client distributions).
type Result struct {
	Clients          int
	Groups           int
	CompletedClients int
	FailedGroups     []int

	Events         uint64  // total scheduler events across all groups
	VirtualSeconds float64 // when the slowest group's last client finished

	QoEPerChunk       stats.Summary // QoE of individual chunks (reservoir-sampled)
	QoEPerClient      stats.Summary // per-client mean QoE
	RebufferPerClient stats.Summary // per-client total rebuffer seconds
	BitsPerClient     stats.Summary // per-client delivered payload bits

	Jain      float64       // Jain fairness over all per-client delivered bits
	GroupJain stats.Summary // distribution of within-group Jain indices
}

// Run simulates the configured swarm and aggregates its QoE. Group panics
// are contained: the error (if non-nil) joins one *par.PanicError per
// failed group, and the returned Result covers the groups that finished.
func Run(cfg Config) (*Result, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("swarm: need at least one client, got %d", cfg.Clients)
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	if cfg.Groups > cfg.Clients {
		return nil, fmt.Errorf("swarm: %d groups for %d clients (a group cannot be empty)", cfg.Groups, cfg.Clients)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	videoCfg := cfg.Video
	if len(videoCfg.BitratesKbps) == 0 {
		videoCfg = abr.DefaultVideoConfig()
	}

	// All randomness descends from one master stream, split sequentially
	// before any worker starts: the shared video first, then one private
	// RNG per group in group order. Workers only consume their groups'
	// pre-split streams, so scheduling cannot perturb any draw.
	master := mathx.NewRNG(cfg.Seed)
	video := abr.NewVideo(master, videoCfg)
	rngs := make([]*mathx.RNG, cfg.Groups)
	for g := range rngs {
		rngs[g] = master.Split()
	}

	base, rem := cfg.Clients/cfg.Groups, cfg.Clients%cfg.Groups
	results := make([]*GroupResult, cfg.Groups)
	errs := make([]error, cfg.Groups)

	first := make([]int, cfg.Groups)
	for g, acc := 0, 0; g < cfg.Groups; g++ {
		first[g] = acc
		acc += base
		if g < rem {
			acc++
		}
	}
	// A failed group is recorded in its slot (runGroup contains it) and does
	// not stop its worker's next group.
	workers := min(cfg.Workers, cfg.Groups)
	if err := par.Run(workers, func(w int) error {
		for g := w; g < cfg.Groups; g += workers {
			n := base
			if g < rem {
				n++
			}
			results[g], errs[g] = runGroup(cfg, g, groupParams{
				clients: n,
				first:   first[g],
				video:   video,
				rng:     rngs[g],
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeResults(cfg, results, errs)
}

type groupParams struct {
	clients int
	first   int
	video   *abr.Video
	rng     *mathx.RNG
}

// runGroup simulates one group to completion, containing panics so a
// misbehaving protocol or controller cannot take down the swarm.
func runGroup(cfg Config, g int, p groupParams) (_ *GroupResult, err error) {
	defer par.Contain(g, &err)
	grp, err := NewGroup(GroupConfig{
		Clients:       p.clients,
		FirstClient:   p.first,
		Video:         p.video,
		Session:       cfg.Session,
		NewProtocol:   cfg.NewProtocol,
		CapacityMbps:  cfg.CapacityMbps,
		Trace:         cfg.Trace,
		RTTSeconds:    cfg.RTTSeconds,
		StartWindowS:  cfg.StartWindowS,
		Backend:       cfg.Backend,
		NewCC:         cfg.NewCC,
		QueuePackets:  cfg.QueuePackets,
		OneWayDelayMs: cfg.OneWayDelayMs,
		LossRate:      cfg.LossRate,
		ReservoirCap:  cfg.ReservoirCap,
	}, p.rng)
	if err != nil {
		return nil, err
	}
	if err := grp.RunToCompletion(); err != nil {
		return nil, err
	}
	return grp.Result(), nil
}

// mergeResults folds per-group results in group order into one Result.
func mergeResults(cfg Config, results []*GroupResult, errs []error) (*Result, error) {
	res := &Result{Clients: cfg.Clients, Groups: cfg.Groups}
	var joined []error

	// Aggregation reservoirs are seeded from the run seed alone, and fed
	// in group order, so the digest is independent of worker count.
	agg := mathx.NewRNG(cfg.Seed ^ 0x5157414d41474752) // "SWARMAGGR"-ish tag
	perQoE := stats.NewReservoir(cfg.ReservoirCap, agg.Uint64())
	perRebuf := stats.NewReservoir(cfg.ReservoirCap, agg.Uint64())
	perBits := stats.NewReservoir(cfg.ReservoirCap, agg.Uint64())
	groupJain := stats.NewReservoir(cfg.ReservoirCap, agg.Uint64())

	var bitsSum, bitsSumSq float64
	var bitsN int
	chunkRes := make([]*stats.Reservoir, 0, len(results))
	for g, gr := range results {
		if errs[g] != nil {
			res.FailedGroups = append(res.FailedGroups, g)
			joined = append(joined, errs[g])
			continue
		}
		res.CompletedClients += gr.Clients
		res.Events += gr.Events
		if gr.VirtualEnd > res.VirtualSeconds {
			res.VirtualSeconds = gr.VirtualEnd
		}
		for i := range gr.PerClientQoE {
			perQoE.Add(gr.PerClientQoE[i])
			perRebuf.Add(gr.PerClientRebuf[i])
			perBits.Add(gr.PerClientBits[i])
			b := gr.PerClientBits[i]
			bitsSum += b
			bitsSumSq += b * b
			bitsN++
		}
		groupJain.Add(gr.Jain)
		chunkRes = append(chunkRes, gr.QoEChunks)
	}

	res.QoEPerChunk = stats.Summarize(chunkRes...)
	res.QoEPerClient = stats.Summarize(perQoE)
	res.RebufferPerClient = stats.Summarize(perRebuf)
	res.BitsPerClient = stats.Summarize(perBits)
	res.GroupJain = stats.Summarize(groupJain)
	if bitsSumSq > 0 {
		res.Jain = bitsSum * bitsSum / (float64(bitsN) * bitsSumSq)
	} else {
		res.Jain = 1
	}

	if len(joined) > 0 {
		return res, errors.Join(joined...)
	}
	return res, nil
}
