package rl

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/par"
)

// ckptTargetEnv is targetEnv with mid-episode checkpoint support: episodes
// span multiple steps, so resuming a pending episode bitwise requires the
// env's step counter to round-trip.
type ckptTargetEnv struct {
	targetEnv
}

type ckptTargetEnvState struct {
	Step int `json:"step"`
}

func (e *ckptTargetEnv) EnvState() ([]byte, error) {
	return json.Marshal(ckptTargetEnvState{Step: e.step})
}

func (e *ckptTargetEnv) SetEnvState(data []byte) error {
	var st ckptTargetEnvState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	e.step = st.Step
	return nil
}

func newCkptEnv() *ckptTargetEnv {
	return &ckptTargetEnv{targetEnv{target: 1.5, horizon: 8}}
}

// newCkptFixture builds a Gaussian-policy PPO trainer. The seed matters only
// for the run that generates the checkpoint; a trainer restored from a
// checkpoint has all of its stochastic state overwritten, which the resume
// tests prove by constructing the resumed trainer with a different seed.
// MaxLogStd is set to 0 — an explicitly-present zero bound — so every
// save/load round-trips the bound-presence encoding.
func newCkptFixture(t *testing.T, seed uint64, steps int) (*PPO, *GaussianPolicy, *nn.MLP) {
	t.Helper()
	rng := mathx.NewRNG(seed)
	policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
	policy.MaxLogStd = 0
	value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
	cfg := DefaultPPOConfig()
	cfg.RolloutSteps = steps
	cfg.LR = 0.005
	p, err := NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p, policy, value
}

// TestPPOResumeBitwise: save at iteration 3, load into a trainer built with
// a DIFFERENT seed, continue — stats and final parameters must be bitwise
// identical to the uninterrupted 6-iteration run. RolloutSteps=50 with
// horizon-8 episodes guarantees a live mid-episode pending state at the
// checkpoint, exercising the EnvCheckpointer path.
func TestPPOResumeBitwise(t *testing.T) {
	full, fullPol, fullVal := newCkptFixture(t, 50, 50)
	fullStats := full.Train(newCkptEnv(), 6)
	fullFP := fingerprint(append(fullPol.Params(), fullVal.Params()...), fullStats)

	a, _, _ := newCkptFixture(t, 50, 50)
	envA := newCkptEnv()
	headStats := a.Train(envA, 3)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := a.SaveCheckpoint(path, envA); err != nil {
		t.Fatal(err)
	}

	b, bPol, bVal := newCkptFixture(t, 999, 50) // different seed: checkpoint must be authoritative
	envB := newCkptEnv()
	if err := b.LoadCheckpoint(path, envB); err != nil {
		t.Fatal(err)
	}
	if b.Iteration() != 3 {
		t.Fatalf("Iteration() = %d after load, want 3", b.Iteration())
	}
	if bPol.MaxLogStd != 0 {
		t.Fatalf("MaxLogStd = %v after load, want explicit 0", bPol.MaxLogStd)
	}
	if !math.IsInf(bPol.MinLogStd, -1) {
		t.Fatalf("MinLogStd = %v after load, want -Inf", bPol.MinLogStd)
	}
	tailStats := b.Train(envB, 3)

	combined := append(append([]IterStats(nil), headStats...), tailStats...)
	for i := range fullStats {
		if fullStats[i] != combined[i] {
			t.Fatalf("iter %d stats diverge after resume:\nfull    %+v\nresumed %+v", i, fullStats[i], combined[i])
		}
	}
	resFP := fingerprint(append(bPol.Params(), bVal.Params()...), combined)
	if fullFP != resFP {
		t.Fatalf("resumed run fingerprint %#x, uninterrupted %#x", resFP, fullFP)
	}
}

// legacyGoldenFP is the uninterrupted 6-iteration fingerprint of
// newCkptFixture(seed 50, 50 steps) on newCkptEnv, captured — like
// testdata/legacy_ppo_iter3.json, that run's iteration-3 checkpoint — at the
// last commit whose sequential trainer wrote envelope kind "ppo".
const legacyGoldenFP = 0x21edd5e8653139b9

// TestLegacyPPOCheckpointResumes: files outlive processes. A kind-"ppo"
// checkpoint written before the layouts were unified loads through the one
// reader as a one-lane checkpoint — into the sequential trainer, into a
// one-lane VecRunner, and into the policy loader — and the resumed run lands
// on the golden of the run that wrote it. So does a four-lane "ppo-vec"
// file of that vintage.
func TestLegacyPPOCheckpointResumes(t *testing.T) {
	const path = "testdata/legacy_ppo_iter3.json"
	full, fullPol, fullVal := newCkptFixture(t, 50, 50)
	fullStats := full.Train(newCkptEnv(), 6)
	if got := fingerprint(append(fullPol.Params(), fullVal.Params()...), fullStats); got != legacyGoldenFP {
		t.Fatalf("uninterrupted fingerprint %#x, want %#x (sequential arithmetic drifted)", got, uint64(legacyGoldenFP))
	}
	resume := map[string]func(*PPO) ([]IterStats, error){
		"sequential": func(p *PPO) ([]IterStats, error) {
			env := newCkptEnv()
			if err := p.LoadCheckpoint(path, env); err != nil {
				return nil, err
			}
			return p.Train(env, 3), nil
		},
		"one-lane runner": func(p *PPO) ([]IterStats, error) {
			v, err := NewVecRunner(p, func(int) Env { return newCkptEnv() }, 1)
			if err != nil {
				return nil, err
			}
			if err := v.LoadCheckpoint(path); err != nil {
				return nil, err
			}
			return v.Train(3)
		},
	}
	for name, run := range resume {
		b, bPol, bVal := newCkptFixture(t, 999, 50) // different seed: the file must be authoritative
		tail, err := run(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		combined := append(append([]IterStats(nil), fullStats[:3]...), tail...)
		if got := fingerprint(append(bPol.Params(), bVal.Params()...), combined); got != legacyGoldenFP {
			t.Fatalf("%s: resumed fingerprint %#x, want %#x", name, got, uint64(legacyGoldenFP))
		}
	}
	if _, err := LoadPolicyNet(path); err != nil {
		t.Fatalf("LoadPolicyNet on the legacy kind: %v", err)
	}
	c, _, _ := newCkptFixture(t, 50, 50)
	v2, err := NewVecRunner(c, func(int) Env { return newCkptEnv() }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.LoadCheckpoint(path); err == nil {
		t.Fatal("two-lane runner loaded a one-lane legacy checkpoint")
	}

	// A four-lane "ppo-vec" file from the same commit: its workers[0] has
	// no rng entry (lane 0's stream was stored only as the trainer RNG).
	factory := func(int) Env { return newCkptEnv() }
	full4, full4Pol, full4Val := newCkptFixture(t, 50, 50)
	full4Stats, err := full4.TrainParallel(factory, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	d, dPol, dVal := newCkptFixture(t, 999, 50)
	v4, err := NewVecRunner(d, factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := v4.LoadCheckpoint("testdata/ppo_vec_w4_iter3_pr14.json"); err != nil {
		t.Fatal(err)
	}
	tail4, err := v4.Train(3)
	if err != nil {
		t.Fatal(err)
	}
	combined4 := append(append([]IterStats(nil), full4Stats[:3]...), tail4...)
	if got, want := fingerprint(append(dPol.Params(), dVal.Params()...), combined4), fingerprint(append(full4Pol.Params(), full4Val.Params()...), full4Stats); got != want {
		t.Fatalf("resumed from the older four-lane file: fingerprint %#x, uninterrupted %#x", got, want)
	}
}

// TestVecResumeBitwise is the parallel counterpart for W ∈ {1, 4}: a
// VecRunner checkpoint captures every worker's RNG stream and pending
// episode, so the resumed run matches the uninterrupted one bitwise.
func TestVecResumeBitwise(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "W=1", 4: "W=4"}[workers], func(t *testing.T) {
			factory := func(int) Env { return newCkptEnv() }

			full, fullPol, fullVal := newCkptFixture(t, 50, 50)
			vFull, err := NewVecRunner(full, factory, workers)
			if err != nil {
				t.Fatal(err)
			}
			fullStats, err := vFull.Train(6)
			if err != nil {
				t.Fatal(err)
			}
			fullFP := fingerprint(append(fullPol.Params(), fullVal.Params()...), fullStats)

			a, _, _ := newCkptFixture(t, 50, 50)
			vA, err := NewVecRunner(a, factory, workers)
			if err != nil {
				t.Fatal(err)
			}
			headStats, err := vA.Train(3)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ckpt.json")
			if err := vA.SaveCheckpoint(path); err != nil {
				t.Fatal(err)
			}

			b, bPol, bVal := newCkptFixture(t, 999, 50)
			vB, err := NewVecRunner(b, factory, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := vB.LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			tailStats, err := vB.Train(3)
			if err != nil {
				t.Fatal(err)
			}

			combined := append(append([]IterStats(nil), headStats...), tailStats...)
			for i := range fullStats {
				if fullStats[i] != combined[i] {
					t.Fatalf("iter %d stats diverge after resume:\nfull    %+v\nresumed %+v", i, fullStats[i], combined[i])
				}
			}
			resFP := fingerprint(append(bPol.Params(), bVal.Params()...), combined)
			if fullFP != resFP {
				t.Fatalf("resumed W=%d fingerprint %#x, uninterrupted %#x", workers, resFP, fullFP)
			}
		})
	}
}

// trainCheckpointedWith is TrainCheckpointed on a fresh checkpoint
// directory with before(iter) run ahead of every iteration: an error from it
// ends the loop there, as a process dying between iterations would.
func trainCheckpointedWith(p *PPO, env Env, iterations int, ckpt CheckpointConfig, before func(iter int) error) ([]IterStats, error) {
	v := p.sequential(env)
	var cd *CheckpointDir
	if ckpt.Dir != "" {
		cd = &CheckpointDir{Dir: ckpt.Dir, Keep: ckpt.Keep}
	}
	step := func() (IterStats, error) {
		if err := before(p.Iteration()); err != nil {
			return IterStats{Iteration: p.Iteration()}, err
		}
		return v.TrainIteration()
	}
	return p.TrainLoop(iterations, cd, ckpt.Every, step, v.SaveCheckpoint, v.LoadCheckpoint)
}

// TestTrainCheckpointedCrashResume drives the full crash-safe loop: the
// process dies between iterations 3 and 4; a freshly-built (different-seed)
// trainer pointed at the same checkpoint directory resumes and finishes, and
// the combined run matches the uninterrupted one bitwise.
func TestTrainCheckpointedCrashResume(t *testing.T) {
	ckpt := CheckpointConfig{Dir: t.TempDir(), Every: 1, Keep: 3}

	full, fullPol, fullVal := newCkptFixture(t, 50, 50)
	fullStats := full.Train(newCkptEnv(), 6)
	fullFP := fingerprint(append(fullPol.Params(), fullVal.Params()...), fullStats)

	errCrash := errors.New("simulated crash")
	a, _, _ := newCkptFixture(t, 50, 50)
	headStats, err := trainCheckpointedWith(a, newCkptEnv(), 6, ckpt, func(iter int) error {
		if iter == 3 {
			return errCrash
		}
		return nil
	})
	if !errors.Is(err, errCrash) {
		t.Fatalf("err = %v, want simulated crash", err)
	}
	if len(headStats) != 3 {
		t.Fatalf("completed %d iterations before crash, want 3", len(headStats))
	}

	b, bPol, bVal := newCkptFixture(t, 999, 50)
	tailStats, err := b.sequential(newCkptEnv()).TrainCheckpointed(6, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tailStats) != 3 {
		t.Fatalf("resumed run executed %d iterations, want 3", len(tailStats))
	}

	combined := append(append([]IterStats(nil), headStats...), tailStats...)
	for i := range fullStats {
		if fullStats[i] != combined[i] {
			t.Fatalf("iter %d stats diverge after crash-resume:\nfull    %+v\nresumed %+v", i, fullStats[i], combined[i])
		}
	}
	resFP := fingerprint(append(bPol.Params(), bVal.Params()...), combined)
	if fullFP != resFP {
		t.Fatalf("crash-resumed fingerprint %#x, uninterrupted %#x", resFP, fullFP)
	}
}

// TestCheckpointDirFallback: when the newest checkpoint is truncated on
// disk, LoadLatest reports the corruption, falls back to the previous one,
// and returns its iteration.
func TestCheckpointDirFallback(t *testing.T) {
	dir := t.TempDir()
	ckpt := CheckpointConfig{Dir: dir, Every: 1, Keep: 3}
	a, _, _ := newCkptFixture(t, 50, 50)
	if _, err := a.sequential(newCkptEnv()).TrainCheckpointed(3, ckpt); err != nil {
		t.Fatal(err)
	}

	// Truncate the newest checkpoint mid-payload.
	cd := &CheckpointDir{Dir: dir}
	newest, iter, err := cd.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if iter != 3 {
		t.Fatalf("latest iter = %d, want 3", iter)
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	b, _, _ := newCkptFixture(t, 999, 50)
	envB := newCkptEnv()
	got, err := cd.LoadLatest(func(path string) error { return b.LoadCheckpoint(path, envB) })
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("fell back to iter %d, want 2", got)
	}
	if b.Iteration() != 2 {
		t.Fatalf("trainer at iteration %d, want 2", b.Iteration())
	}
}

// TestCheckpointDirRetention: Keep bounds the number of files on disk.
func TestCheckpointDirRetention(t *testing.T) {
	dir := t.TempDir()
	ckpt := CheckpointConfig{Dir: dir, Every: 1, Keep: 2}
	a, _, _ := newCkptFixture(t, 50, 50)
	if _, err := a.sequential(newCkptEnv()).TrainCheckpointed(5, ckpt); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2 (Keep)", len(matches))
	}
	cd := &CheckpointDir{Dir: dir, Keep: 2}
	if _, iter, err := cd.Latest(); err != nil || iter != 5 {
		t.Fatalf("Latest = (%d, %v), want (5, nil)", iter, err)
	}
}

// TestCheckpointLoadRejects: corrupt files, kind mismatches, and
// config/architecture mismatches must all error — never panic, never load
// silently-wrong state.
func TestCheckpointLoadRejects(t *testing.T) {
	dir := t.TempDir()
	a, _, _ := newCkptFixture(t, 50, 50)
	envA := newCkptEnv()
	a.Train(envA, 1)
	good := filepath.Join(dir, "good.json")
	if err := a.SaveCheckpoint(good, envA); err != nil {
		t.Fatal(err)
	}

	t.Run("garbage bytes", func(t *testing.T) {
		p := filepath.Join(dir, "garbage.json")
		os.WriteFile(p, []byte("{not json"), 0o644)
		b, _, _ := newCkptFixture(t, 50, 50)
		if err := b.LoadCheckpoint(p, newCkptEnv()); err == nil {
			t.Fatal("loaded garbage without error")
		}
	})

	t.Run("flipped payload bit", func(t *testing.T) {
		data, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		env.Payload[len(env.Payload)/2] ^= 0x01
		bad, _ := json.Marshal(&env)
		p := filepath.Join(dir, "bitflip.json")
		os.WriteFile(p, bad, 0o644)
		b, _, _ := newCkptFixture(t, 50, 50)
		err = b.LoadCheckpoint(p, newCkptEnv())
		if err == nil {
			t.Fatal("integrity check did not catch a flipped payload byte")
		}
	})

	t.Run("config mismatch", func(t *testing.T) {
		rng := mathx.NewRNG(1)
		policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
		value := nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 50
		cfg.LR = 0.005
		cfg.Gamma = 0.9 // differs from the saved trainer
		b, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LoadCheckpoint(good, newCkptEnv()); err == nil {
			t.Fatal("loaded checkpoint with mismatched config")
		}
	})

	t.Run("architecture mismatch", func(t *testing.T) {
		rng := mathx.NewRNG(1)
		policy := NewGaussianPolicy(nn.NewMLP(rng, []int{1, 16, 1}, nn.Tanh), -0.5)
		value := nn.NewMLP(rng, []int{1, 16, 1}, nn.Tanh)
		cfg := DefaultPPOConfig()
		cfg.RolloutSteps = 50
		cfg.LR = 0.005
		b, err := NewPPO(policy, value, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LoadCheckpoint(good, newCkptEnv()); err == nil {
			t.Fatal("loaded checkpoint with mismatched architecture")
		}
	})

	t.Run("vec checkpoint into sequential trainer", func(t *testing.T) {
		c, _, _ := newCkptFixture(t, 50, 50)
		v, err := NewVecRunner(c, func(int) Env { return newCkptEnv() }, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Train(1); err != nil {
			t.Fatal(err)
		}
		vp := filepath.Join(dir, "vec.json")
		if err := v.SaveCheckpoint(vp); err != nil {
			t.Fatal(err)
		}
		b, _, _ := newCkptFixture(t, 50, 50)
		if err := b.LoadCheckpoint(vp, newCkptEnv()); err == nil {
			t.Fatal("sequential trainer loaded a vec checkpoint")
		}
		// And a worker-count mismatch on the vec side.
		d, _, _ := newCkptFixture(t, 50, 50)
		v3, err := NewVecRunner(d, func(int) Env { return newCkptEnv() }, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := v3.LoadCheckpoint(vp); err == nil {
			t.Fatal("vec runner loaded a checkpoint with a different worker count")
		}
	})
}

// panicEnv is an environment whose Step panics while *armed is set.
type panicEnv struct {
	Env
	armed *bool
}

func (e panicEnv) Step(action []float64) ([]float64, float64, bool) {
	if *e.armed {
		panic("injected rollout fault")
	}
	return e.Env.Step(action)
}

// TestVecWorkerPanicContained: a panic inside worker 2's environment must
// surface as a *par.PanicError naming worker 2 — the process survives, and
// the runner keeps working afterwards.
func TestVecWorkerPanicContained(t *testing.T) {
	p, _, _, factory := newVecFixture(64)
	armed := true
	v, err := NewVecRunner(p, func(w int) Env {
		if w == 2 {
			return panicEnv{factory(w), &armed}
		}
		return factory(w)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.TrainIteration()
	armed = false

	var wpe *par.PanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	if wpe.Index != 2 {
		t.Fatalf("panic attributed to worker %d, want 2", wpe.Index)
	}
	if len(wpe.Stack) == 0 {
		t.Fatal("no stack captured")
	}

	// The runner must be usable again: buffers were reset, episode state
	// abandoned, and the iteration counter not advanced.
	if p.Iteration() != 0 {
		t.Fatalf("iteration counter advanced to %d through a failed iteration", p.Iteration())
	}
	stats, err := v.TrainIteration()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 64 {
		t.Fatalf("post-recovery iteration collected %d steps, want 64", stats.Steps)
	}
}

// TestDivergenceWatchdogRollsBack: a NaN poisoned into the value net during
// training must trip the watchdog; with a checkpoint directory available the
// trainer is rolled back to the last good checkpoint before the error is
// returned.
func TestDivergenceWatchdogRollsBack(t *testing.T) {
	ckpt := CheckpointConfig{Dir: t.TempDir(), Every: 1}
	p, _, _ := newCkptFixture(t, 50, 50)
	_, err := trainCheckpointedWith(p, newCkptEnv(), 4, ckpt, func(iter int) error {
		if iter == 2 {
			p.Value.Params()[0][0] = math.NaN()
		}
		return nil
	})

	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DivergenceError", err)
	}
	if de.Iteration != 2 {
		t.Fatalf("divergence at iteration %d, want 2", de.Iteration)
	}
	if !de.RolledBack {
		t.Fatal("watchdog did not roll back to the last checkpoint")
	}
	if detail := checkFinite(IterStats{}, p.Policy.Params(), p.Value.Params()); detail != "" {
		t.Fatalf("non-finite state survived rollback: %s", detail)
	}
	if p.Iteration() != 2 {
		t.Fatalf("rolled back to iteration %d, want 2", p.Iteration())
	}
}

// TestDivergenceWatchdogNoCheckpoint: without a checkpoint dir, the watchdog
// still aborts with a diagnostic (no rollback to offer).
func TestDivergenceWatchdogNoCheckpoint(t *testing.T) {
	p, _, _ := newCkptFixture(t, 50, 50)
	_, err := trainCheckpointedWith(p, newCkptEnv(), 3, CheckpointConfig{}, func(iter int) error {
		if iter == 1 {
			p.Value.Params()[0][0] = math.Inf(1)
		}
		return nil
	})

	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DivergenceError", err)
	}
	if de.RolledBack {
		t.Fatal("claims rollback with no checkpoint directory")
	}
}

// TestCheckpointDirOwnershipGuard covers the shared-directory prune race:
// once one CheckpointDir value has claimed the directory, Save through any
// other — same process or another live one — fails with a typed
// *DirOwnedError instead of pruning against a manifest someone else is
// rewriting. Release returns the directory to the legacy unclaimed state.
func TestCheckpointDirOwnershipGuard(t *testing.T) {
	dir := t.TempDir()
	writeN := func(d *CheckpointDir, iter int) error {
		return d.Save(iter, func(path string) error {
			return os.WriteFile(path, []byte("x"), 0o644)
		})
	}

	owner := &CheckpointDir{Dir: dir, Keep: 2}
	if err := owner.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := owner.Acquire(); err != nil { // idempotent for the holder
		t.Fatal(err)
	}
	if err := writeN(owner, 1); err != nil {
		t.Fatalf("owner save: %v", err)
	}

	// A second CheckpointDir value over the same directory: both Acquire
	// and Save must refuse with the typed conflict, naming the owner pid.
	intruder := &CheckpointDir{Dir: dir, Keep: 2}
	var owned *DirOwnedError
	if err := intruder.Acquire(); !errors.As(err, &owned) {
		t.Fatalf("intruder Acquire err = %v, want *DirOwnedError", err)
	}
	if owned.PID != os.Getpid() {
		t.Fatalf("conflict names pid %d, want %d", owned.PID, os.Getpid())
	}
	owned = nil
	if err := writeN(intruder, 2); !errors.As(err, &owned) {
		t.Fatalf("intruder Save err = %v, want *DirOwnedError", err)
	}
	// The guard runs before the checkpoint file is written, so the refused
	// save left no trace in the manifest.
	if _, iter, err := owner.Latest(); err != nil || iter != 1 {
		t.Fatalf("Latest = %d, %v after refused save, want 1", iter, err)
	}

	// Release: the directory is unclaimed again, legacy saves work.
	if err := owner.Release(); err != nil {
		t.Fatal(err)
	}
	if err := writeN(intruder, 2); err != nil {
		t.Fatalf("save after release: %v", err)
	}
	if _, iter, err := intruder.Latest(); err != nil || iter != 2 {
		t.Fatalf("Latest = %d, %v, want 2", iter, err)
	}
}

// TestCheckpointDirStaleLockStolen: a lock left behind by a dead process (a
// crash never calls Release) must not block training forever — Acquire
// steals it, and an unclaimed-path Save clears it.
func TestCheckpointDirStaleLockStolen(t *testing.T) {
	const deadPID = 1 << 30 // far above any real pid_max
	dir := t.TempDir()
	lock := filepath.Join(dir, "owner.lock")
	if err := os.WriteFile(lock, []byte(`{"pid":1073741824}`), 0o644); err != nil {
		t.Fatal(err)
	}

	d := &CheckpointDir{Dir: dir, Keep: 2}
	if err := d.Acquire(); err != nil {
		t.Fatalf("Acquire over dead pid %d: %v", deadPID, err)
	}
	pid, ok := readLockPID(lock)
	if !ok || pid != os.Getpid() {
		t.Fatalf("lock after steal = %d, %v, want %d", pid, ok, os.Getpid())
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}

	// Same stale lock, but through the unclaimed Save path: the dead claim
	// is cleared and the save proceeds.
	if err := os.WriteFile(lock, []byte(`{"pid":1073741824}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e := &CheckpointDir{Dir: dir, Keep: 2}
	if err := e.Save(1, func(path string) error {
		return os.WriteFile(path, []byte("x"), 0o644)
	}); err != nil {
		t.Fatalf("Save over dead claim: %v", err)
	}
	if _, err := os.Stat(lock); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dead claim not cleared: %v", err)
	}
}
