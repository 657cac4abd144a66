package rl

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// newSimLane builds a worker-side lane for the checkpoint fixture's
// architecture. The construction RNG is arbitrary — parameters are
// overwritten by SetParams before every collect — but the hyperparameters
// (MaxLogStd) must match the trainer's, as a dist Domain's BuildModel must.
func newSimLane(t *testing.T, gamma, lambda float64) *Lane {
	t.Helper()
	rng := mathx.NewRNG(777)
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
	policy.MaxLogStd = 0
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	l, err := NewLane(policy, value, newCkptEnv(), gamma, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runDistSim drives the trainer through iters distributed iterations
// against worker-side lanes, exactly as the dist coordinator does over the
// wire: ship state + params out, collect batches, merge in lane order.
// Returns the per-iteration stats; states is mutated to the final boundary.
func runDistSim(t *testing.T, p *PPO, lanes []*Lane, states []LaneState, steps []int, iters int) []IterStats {
	t.Helper()
	out := make([]IterStats, 0, iters)
	for it := 0; it < iters; it++ {
		states[0].RNG = p.RNGState() // lane 0 shares the trainer RNG
		batches := make([]*RolloutBatch, len(lanes))
		for i, l := range lanes {
			if err := l.SetParams(p.Policy.Params(), p.Value.Params()); err != nil {
				t.Fatal(err)
			}
			if err := l.Restore(states[i]); err != nil {
				t.Fatal(err)
			}
			b, err := l.Collect(i, steps[i])
			if err != nil {
				t.Fatal(err)
			}
			batches[i] = b
		}
		st, err := p.ApplyRemoteRollouts(batches)
		if err != nil {
			t.Fatal(err)
		}
		for i := range states {
			states[i] = batches[i].End
		}
		out = append(out, st)
	}
	return out
}

// TestDistLanesMatchVecRunnerBitwise is the lane-level half of the
// distributed determinism contract: W stateless lanes driven through
// SetParams/Restore/Collect/ApplyRemoteRollouts — the exact sequence the
// coordinator runs over the wire — produce bitwise-identical stats and
// parameters to an in-process VecRunner with W workers, for W ∈ {1, 4}.
func TestDistLanesMatchVecRunnerBitwise(t *testing.T) {
	for _, W := range []int{1, 4} {
		t.Run(map[int]string{1: "W=1", 4: "W=4"}[W], func(t *testing.T) {
			const iters = 4

			vec, vecPol, vecVal := newCkptFixture(t, 50, 50)
			vecStats, err := vec.TrainParallel(func(int) Env { return newCkptEnv() }, W, iters)
			if err != nil {
				t.Fatal(err)
			}
			vecFP := fingerprint(append(vecPol.Params(), vecVal.Params()...), vecStats)

			p, pol, val := newCkptFixture(t, 50, 50)
			states, err := p.NewLaneStates(func(int) Env { return newCkptEnv() }, W)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := p.LaneSteps(W)
			if err != nil {
				t.Fatal(err)
			}
			lanes := make([]*Lane, W)
			for i := range lanes {
				lanes[i] = newSimLane(t, p.Config().Gamma, p.Config().Lambda)
			}
			distStats := runDistSim(t, p, lanes, states, steps, iters)

			for i := range vecStats {
				if vecStats[i] != distStats[i] {
					t.Fatalf("iter %d stats diverge:\nvec  %+v\ndist %+v", i, vecStats[i], distStats[i])
				}
			}
			distFP := fingerprint(append(pol.Params(), val.Params()...), distStats)
			if vecFP != distFP {
				t.Fatalf("dist fingerprint %#x, vec %#x", distFP, vecFP)
			}
		})
	}
}

// TestDistCheckpointBytesMatchVecRunner: a distributed checkpoint saved at
// an iteration boundary is byte-identical to the "ppo-replay" checkpoint an
// in-process VecRunner writes at the same boundary — the two training paths
// are interchangeable mid-run, which is what lets a distributed coordinator
// resume a VecRunner run and vice versa.
func TestDistCheckpointBytesMatchVecRunner(t *testing.T) {
	const W, iters = 4, 3
	dir := t.TempDir()

	vec, _, _ := newCkptFixture(t, 50, 50)
	runner, err := NewVecRunner(vec, func(int) Env { return newCkptEnv() }, W)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Train(iters); err != nil {
		t.Fatal(err)
	}
	vecPath := filepath.Join(dir, "vec.json")
	if err := runner.SaveCheckpoint(vecPath); err != nil {
		t.Fatal(err)
	}

	p, _, _ := newCkptFixture(t, 50, 50)
	states, err := p.NewLaneStates(func(int) Env { return newCkptEnv() }, W)
	if err != nil {
		t.Fatal(err)
	}
	steps, _ := p.LaneSteps(W)
	lanes := make([]*Lane, W)
	for i := range lanes {
		lanes[i] = newSimLane(t, p.Config().Gamma, p.Config().Lambda)
	}
	runDistSim(t, p, lanes, states, steps, iters)
	distPath := filepath.Join(dir, "dist.json")
	if err := p.SaveLaneCheckpoint(distPath, states); err != nil {
		t.Fatal(err)
	}

	vecBytes, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	distBytes, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vecBytes, distBytes) {
		t.Fatalf("checkpoint bytes differ:\nvec  %d bytes\ndist %d bytes", len(vecBytes), len(distBytes))
	}
}

// TestDistCheckpointResumeBitwise: kill-and-resume through the dist
// checkpoint API. A run saved at iteration 3 and resumed into a trainer
// built with a DIFFERENT seed (the checkpoint must be authoritative)
// continues bitwise-identically to the uninterrupted 6-iteration run.
func TestDistCheckpointResumeBitwise(t *testing.T) {
	const W, head, total = 4, 3, 6
	newLanes := func(p *PPO) []*Lane {
		lanes := make([]*Lane, W)
		for i := range lanes {
			lanes[i] = newSimLane(t, p.Config().Gamma, p.Config().Lambda)
		}
		return lanes
	}

	full, fullPol, fullVal := newCkptFixture(t, 50, 50)
	fullStates, err := full.NewLaneStates(func(int) Env { return newCkptEnv() }, W)
	if err != nil {
		t.Fatal(err)
	}
	steps, _ := full.LaneSteps(W)
	fullStats := runDistSim(t, full, newLanes(full), fullStates, steps, total)
	fullFP := fingerprint(append(fullPol.Params(), fullVal.Params()...), fullStats)

	a, _, _ := newCkptFixture(t, 50, 50)
	aStates, err := a.NewLaneStates(func(int) Env { return newCkptEnv() }, W)
	if err != nil {
		t.Fatal(err)
	}
	headStats := runDistSim(t, a, newLanes(a), aStates, steps, head)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := a.SaveLaneCheckpoint(path, aStates); err != nil {
		t.Fatal(err)
	}

	b, bPol, bVal := newCkptFixture(t, 999, 50) // different seed
	bStates, err := b.LoadLaneCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bStates) != W {
		t.Fatalf("restored %d lanes, want %d", len(bStates), W)
	}
	if b.Iteration() != head {
		t.Fatalf("Iteration() = %d after load, want %d", b.Iteration(), head)
	}
	tailStats := runDistSim(t, b, newLanes(b), bStates, steps, total-head)

	combined := append(append([]IterStats(nil), headStats...), tailStats...)
	for i := range fullStats {
		if fullStats[i] != combined[i] {
			t.Fatalf("iter %d stats diverge after resume:\nfull    %+v\nresumed %+v", i, fullStats[i], combined[i])
		}
	}
	resFP := fingerprint(append(bPol.Params(), bVal.Params()...), combined)
	if fullFP != resFP {
		t.Fatalf("resumed fingerprint %#x, uninterrupted %#x", resFP, fullFP)
	}
}

// TestApplyRemoteRolloutsRejectsForeignDims: every batch is self-consistent,
// but one has row widths that are not the trainer's networks' (or lane 0's).
// It must be refused before anything is imported — the update gathers rows
// at the first step's width — with the iteration counter, the trainer RNG
// and the parameters untouched.
func TestApplyRemoteRolloutsRejectsForeignDims(t *testing.T) {
	const W = 2
	p, pol, val := newCkptFixture(t, 50, 50)
	states, err := p.NewLaneStates(func(int) Env { return newCkptEnv() }, W)
	if err != nil {
		t.Fatal(err)
	}
	steps, _ := p.LaneSteps(W)
	collect := func() []*RolloutBatch {
		states[0].RNG = p.RNGState()
		batches := make([]*RolloutBatch, W)
		for i := range batches {
			l := newSimLane(t, p.Config().Gamma, p.Config().Lambda)
			if err := l.SetParams(p.Policy.Params(), p.Value.Params()); err != nil {
				t.Fatal(err)
			}
			if err := l.Restore(states[i]); err != nil {
				t.Fatal(err)
			}
			if batches[i], err = l.Collect(i, steps[i]); err != nil {
				t.Fatal(err)
			}
		}
		return batches
	}
	widen := func(b *RolloutBatch, obs, act int) {
		b.ObsDim, b.ActDim = obs, act
		b.Obs, b.Act = make([]float64, b.Steps*obs), make([]float64, b.Steps*act)
	}
	before := fingerprint(append(pol.Params(), val.Params()...), nil)
	rng := p.RNGState()
	for name, mutate := range map[string]func([]*RolloutBatch){
		"obs width differs from the value net": func(b []*RolloutBatch) { widen(b[1], 2, 1) },
		"act width differs from lane 0":        func(b []*RolloutBatch) { widen(b[1], 1, 2) },
		"lane 0 itself is foreign":             func(b []*RolloutBatch) { widen(b[0], 3, 1) },
	} {
		batches := collect()
		mutate(batches)
		for _, b := range batches {
			if err := b.Validate(); err != nil {
				t.Fatalf("%s: fixture batch is not self-consistent: %v", name, err)
			}
		}
		if _, err := p.ApplyRemoteRollouts(batches); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if p.Iteration() != 0 || p.buf.len() != 0 || p.RNGState() != rng {
			t.Fatalf("%s: refused batch left iteration %d, %d buffered steps, rng moved: %v", name, p.Iteration(), p.buf.len(), p.RNGState() != rng)
		}
	}
	if after := fingerprint(append(pol.Params(), val.Params()...), nil); after != before {
		t.Fatal("a refused batch changed the parameters")
	}
	if _, err := p.ApplyRemoteRollouts(collect()); err != nil {
		t.Fatalf("healthy batches after the refusals: %v", err)
	}
}

// TestRolloutBatchValidateDeterministic: with several arrays short at once,
// the error names the first in field order, every time.
func TestRolloutBatchValidateDeterministic(t *testing.T) {
	b := &RolloutBatch{Steps: 2, ObsDim: 1, ActDim: 1, Obs: make([]float64, 2), Act: make([]float64, 2), Rewards: make([]float64, 2)}
	want := b.Validate()
	if want == nil || !strings.Contains(want.Error(), "values") {
		t.Fatalf("got %v, want the first short array (values) named", want)
	}
	for i := 0; i < 32; i++ {
		if err := b.Validate(); err.Error() != want.Error() {
			t.Fatalf("error text changed between calls: %q vs %q", err, want)
		}
	}
}
