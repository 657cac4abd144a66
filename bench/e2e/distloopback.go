package main

import (
	"encoding/json"
	"fmt"

	"advnet/internal/dist"
	"advnet/internal/rl"
)

// distLoopback is the "dist iteration" runtime surface: a coordinator and
// one in-process worker exchanging lane rollouts over 127.0.0.1 TCP. The
// arithmetic is robustify_abr's (Pensieve PPO) reached through rl.Lane,
// sha256-framed messages and a parameter broadcast, so transport cost is
// the difference between this workload and an in-process rl.VecRunner on
// the same spec (dist.vs_vec_ratio). The socket is loopback: no wire
// latency or bandwidth limit is measured. One worker, because on the 2-vCPU
// box a second one added noise and no speed (README).
type distLoopback struct {
	spec  dist.PensieveSpec
	raw   json.RawMessage
	lanes int
	iters int
}

func distSpec(seed uint64) dist.PensieveSpec {
	return dist.PensieveSpec{Seed: seed, DatasetSeed: seed + 1, Traces: 16, RolloutSteps: 1024}
}

func setupDistLoopback(seed uint64) (instance, error) {
	d := &distLoopback{spec: distSpec(seed), lanes: 4, iters: 5}
	raw, err := json.Marshal(d.spec)
	if err != nil {
		return nil, err
	}
	d.raw = raw
	// First answered op: bind, connect, handshake and one iteration.
	if _, err := d.run(nil, 1, nil); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *distLoopback) close() error { return nil }

// run trains iters iterations through a fresh coordinator and worker and
// returns the coordinator after Close, for its trainer and counters.
func (d *distLoopback) run(sp *spans, iters int, onIter func(int, rl.IterStats)) (*dist.Coordinator, error) {
	s := sp.begin("dist.connect")
	c, err := dist.NewCoordinator(dist.Config{
		Domain: "pensieve", Spec: d.raw, Lanes: d.lanes, Iterations: iters, OnIteration: onIter,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	worker := make(chan error, 1) // holds the worker's one exit status
	go func() {
		w := sp.begin("dist.worker")
		worker <- dist.RunWorker(dist.WorkerConfig{Addr: c.Addr()})
		sp.end(w)
	}()
	sp.end(s)

	s = sp.begin("dist.run")
	_, runErr := c.Run()
	sp.end(s)
	if runErr != nil {
		// Close makes the worker's next read or dial fail, so the wait
		// below ends even though no shutdown frame was sent.
		c.Close()
		<-worker
		return nil, runErr
	}
	if err := <-worker; err != nil {
		return nil, fmt.Errorf("dist worker: %w", err)
	}
	return c, nil
}

func trainerDigest(p *rl.PPO) [32]byte {
	d := newDigest()
	d.params(p.Policy.Params())
	d.params(p.Value.Params())
	return d.sum()
}

func (d *distLoopback) unit(sp *spans) (unitOut, error) {
	c, err := d.run(sp, d.iters, nil)
	if err != nil {
		return unitOut{}, err
	}
	p := c.Trainer()
	return unitOut{ops: int64(d.iters * p.Config().RolloutSteps), verify: func() ([32]byte, int64) {
		// A reassigned lane is a lane that failed once; none is expected
		// on a healthy loopback.
		return trainerDigest(p), c.Reassignments() + nonFinite(p.Policy.Params()...) + nonFinite(p.Value.Params()...)
	}}, nil
}

// vecReference trains the same spec in-process with rl.VecRunner, one
// worker goroutine per lane — what the distributed run must equal bitwise.
func (d *distLoopback) vecReference() (*rl.PPO, error) {
	dom, err := dist.LookupDomain("pensieve")
	if err != nil {
		return nil, err
	}
	p, factory, err := dom.NewTrainer(d.raw, d.lanes)
	if err != nil {
		return nil, err
	}
	if _, err := p.TrainParallel(factory, d.lanes, d.iters); err != nil {
		return nil, err
	}
	return p, nil
}

// finish checks, once and untimed, that the loopback run and the in-process
// VecRunner produce the same parameters.
func (d *distLoopback) finish() error {
	ref, err := d.vecReference()
	if err != nil {
		return err
	}
	c, err := d.run(nil, d.iters, nil)
	if err != nil {
		return err
	}
	if got, want := trainerDigest(c.Trainer()), trainerDigest(ref); got != want {
		return fmt.Errorf("dist_loopback: digest %x differs from in-process VecRunner %x", got[:6], want[:6])
	}
	return nil
}
