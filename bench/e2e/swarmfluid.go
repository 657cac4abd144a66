package main

import (
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/stats"
	"advnet/internal/swarm"
)

// swarmFluid is the "swarm event" runtime surface: 12 000 viewers in 192
// groups sharing 40 Mbps bottlenecks on the fluid backend, one worker. It
// reaches swarm, vclock and abr.Session.ApplyChunk with lean histories and
// no nn at all, and allocates its sessions per client at set-up of each
// run — which is why alloc_mb_per_unit is the interesting number here.
type swarmFluid struct {
	cfg swarm.Config
}

// mixedProtocols assigns buffer-based, rate-based and BOLA by client index.
func mixedProtocols(client int) abr.Protocol {
	switch client % 3 {
	case 0:
		return abr.NewBB()
	case 1:
		return abr.NewRateBased()
	}
	return abr.NewBOLA()
}

func swarmConfig(seed uint64, clients, groups int) swarm.Config {
	return swarm.Config{
		Clients:      clients,
		Groups:       groups,
		Workers:      1,
		Seed:         seed,
		NewProtocol:  mixedProtocols,
		CapacityMbps: 40,
		RTTSeconds:   abrRTT,
		StartWindowS: 30,
		Backend:      swarm.FluidBackend,
	}
}

func setupSwarmFluid(seed uint64) (instance, error) {
	s := &swarmFluid{cfg: swarmConfig(seed, 12000, 192)}
	// First answered op: a sixteenth of the swarm at the same density, run
	// to completion.
	if _, err := runSwarm(swarmConfig(seed, s.cfg.Clients/16, s.cfg.Groups/16)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *swarmFluid) close() error { return nil }

// runSwarm runs a swarm and applies the workload's completion rule: every
// client finishes and no group fails.
func runSwarm(cfg swarm.Config) (*swarm.Result, error) {
	res, err := swarm.Run(cfg)
	if err != nil {
		return nil, err
	}
	if res.CompletedClients != cfg.Clients || len(res.FailedGroups) > 0 {
		return nil, fmt.Errorf("swarm: %d of %d clients completed, failed groups %v", res.CompletedClients, cfg.Clients, res.FailedGroups)
	}
	return res, nil
}

func (s *swarmFluid) unit(sp *spans) (unitOut, error) {
	id := sp.begin("swarm.run")
	res, err := runSwarm(s.cfg)
	sp.end(id)
	if err != nil {
		return unitOut{}, err
	}
	return unitOut{ops: int64(res.Events), verify: func() ([32]byte, int64) {
		d := newDigest()
		d.u64(uint64(res.CompletedClients))
		d.u64(res.Events)
		d.floats([]float64{res.VirtualSeconds, res.Jain})
		for _, sm := range []stats.Summary{res.QoEPerChunk, res.QoEPerClient, res.RebufferPerClient, res.BitsPerClient, res.GroupJain} {
			d.u64(sm.Count)
			d.floats([]float64{sm.Mean, sm.Min, sm.P50, sm.P95, sm.P99, sm.Max})
		}
		return d.sum(), nonFinite([]float64{res.Jain, res.VirtualSeconds, res.QoEPerClient.Mean, res.RebufferPerClient.Mean})
	}}, nil
}
