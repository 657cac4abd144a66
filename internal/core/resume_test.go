package core

import (
	"errors"
	"reflect"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/faults"
	"advnet/internal/mathx"
	"advnet/internal/par"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

func resumeTestCfg() RobustTrainConfig {
	cfg := DefaultRobustTrainConfig()
	cfg.TotalIterations = 4
	cfg.InjectAtFrac = 0.5
	cfg.AdversarialTraces = 3
	cfg.AdvOpt = TrainOptions{Iterations: 2, RolloutSteps: 256, LR: 1e-3}
	cfg.RolloutSteps = 256
	return cfg
}

func resumeTestData() (*abr.Video, *trace.Dataset) {
	return testVideo(), trace.GenerateFCCLikeDataset(mathx.NewRNG(3), trace.DefaultFCCLike(), 6, "fcc")
}

// crashResumeMatchesFull runs the robust pipeline uninterrupted, re-runs it
// with an injected crash (crash decides when the "rl.train.iter" hook fires,
// given the iteration number the trainer is about to run), resumes in a
// "fresh process" (same arguments, fresh RNG object from the same seed), and
// requires the resumed run to finish bit-for-bit equal to the uninterrupted
// one.
func crashResumeMatchesFull(t *testing.T, workers int, crash func(iter int) bool, wantResumedStats int) {
	t.Helper()
	v, ds := resumeTestData()

	cfg := resumeTestCfg()
	cfg.Workers = workers
	full, err := TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if len(full.Stats) != 4 {
		t.Fatalf("uninterrupted run reported %d stats, want 4", len(full.Stats))
	}

	cfg = resumeTestCfg()
	cfg.Workers = workers
	cfg.Checkpoint = rl.CheckpointConfig{Dir: t.TempDir(), Every: 1}
	errCrash := errors.New("injected crash")
	faults.Set("rl.train.iter", faults.FailN(errCrash, func(args ...any) bool {
		return crash(args[0].(int))
	}))
	_, err = TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
	faults.Clear("rl.train.iter")
	if !errors.Is(err, errCrash) {
		t.Fatalf("crashed run error = %v, want injected crash", err)
	}

	res, err := TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(res.Stats) != wantResumedStats {
		t.Fatalf("resumed run executed %d iterations, want %d", len(res.Stats), wantResumedStats)
	}
	if !reflect.DeepEqual(full.Stats[4-wantResumedStats:], res.Stats) {
		t.Fatal("resumed iteration statistics diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(full.Protocol.Policy.Net().Params(), res.Protocol.Policy.Net().Params()) {
		t.Fatal("resumed protocol parameters diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(full.AdversarialTraces, res.AdversarialTraces) {
		t.Fatal("adversarial traces diverged from the uninterrupted run")
	}
}

// TestRobustResumeAfterPhase2Crash kills training during phase 2, after the
// adversary and its traces were persisted; the resume must skip phase 1
// outright, reload the artifacts, and continue phase 2 from its checkpoint.
func TestRobustResumeAfterPhase2Crash(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Global iteration 3 is the second phase-2 iteration (phase 1 covers
	// iterations 0–1); only iteration 3 remains for the resumed process.
	crashResumeMatchesFull(t, 0, func(iter int) bool { return iter == 3 }, 1)
}

// TestRobustResumeAfterPhase1Crash kills training mid-phase-1, before any
// adversary exists; the resume must reload the phase-1 checkpoint (restoring
// the shared master RNG), finish phase 1, then train the adversary and run
// phase 2 exactly as the uninterrupted run did.
func TestRobustResumeAfterPhase1Crash(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Crash at global iteration 1: iterations 1, 2 and 3 remain.
	crashResumeMatchesFull(t, 0, func(iter int) bool { return iter == 1 }, 3)
}

// TestRobustResumeAtPhaseBoundary crashes at the first adversary-training
// iteration: phase 1 is complete and its final (boundary) checkpoint is on
// disk, but no adversary artifacts exist yet. The resume loads the boundary
// checkpoint, runs zero phase-1 iterations, retrains the adversary, and then
// starts phase 2 on a fresh merged-dataset environment — the pending episode
// restored from the checkpoint belongs to phase 1's environment and must be
// abandoned there, not adopted (regression: the restored episode once
// latched onto phase 2's un-reset environment, a nil-session panic).
func TestRobustResumeAtPhaseBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// The hook sees iteration 0 twice: phase 1's first iteration, then the
	// adversary trainer's own first iteration. Crash on the second.
	zeros := 0
	crashResumeMatchesFull(t, 0, func(iter int) bool {
		if iter == 0 {
			zeros++
			return zeros == 2
		}
		return false
	}, 2)
}

// TestRobustResumeAtPhaseBoundaryParallel is the Workers=2 variant, crashing
// at the top of phase 2's first iteration (artifacts saved, phase-2
// checkpoint directory still empty). The resumed VecRunner loads phase 1's
// boundary checkpoint into the shared trainer collector and runs zero
// iterations; phase 2's fresh worker pool must abandon that pending episode
// rather than adopt its own un-reset environment.
func TestRobustResumeAtPhaseBoundaryParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Iteration 2 only ever occurs in phase 2 (phase 1 and the adversary
	// trainer both run iterations 0–1), so this fires at the phase-2 start.
	crashResumeMatchesFull(t, 2, func(iter int) bool { return iter == 2 }, 2)
}

// TestRobustShardedResumeParallel: each of the two workers streams its own
// shard with an epoch-reshuffled cursor, the crash lands mid-phase-1 (cursors
// mid-epoch), and the resumed run — phase-1
// tail, adversary, then phase 2 re-sharded over the merged dataset — must
// still be bit-for-bit the uninterrupted sharded run.
func TestRobustShardedResumeParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	crashResumeMatchesFull(t, 2, func(iter int) bool { return iter == 1 }, 3)
}

// TestEvaluateABRShardPanicContained injects a panic into one evaluation
// shard and checks it surfaces as a typed error naming the shard instead of
// killing the process, and that the evaluator still works afterwards.
func TestEvaluateABRShardPanicContained(t *testing.T) {
	v, ds := resumeTestData()
	p := abr.NewBB()

	faults.Set("core.eval.shard", func(args ...any) error {
		if args[0].(int) == 1 {
			panic("injected shard panic")
		}
		return nil
	})
	_, err := EvaluateABR(v, ds, p, 0.08, 2)
	faults.Clear("core.eval.shard")
	if err == nil {
		t.Fatal("panicking shard reported no error")
	}
	var wpe *par.PanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("error %T is not a par.PanicError: %v", err, err)
	}
	if wpe.Index != 1 || len(wpe.Stack) == 0 {
		t.Fatalf("panic attributed to worker %d (stack %d bytes), want worker 1", wpe.Index, len(wpe.Stack))
	}

	qoes, err := EvaluateABR(v, ds, p, 0.08, 2)
	if err != nil {
		t.Fatalf("evaluator unusable after contained panic: %v", err)
	}
	if len(qoes) != len(ds.Traces) {
		t.Fatalf("got %d QoE values, want %d", len(qoes), len(ds.Traces))
	}
}

// TestEvaluateABRShardErrorSequential checks the graceful-error path of the
// single-worker evaluator.
func TestEvaluateABRShardErrorSequential(t *testing.T) {
	v, ds := resumeTestData()
	errEval := errors.New("injected eval failure")
	faults.Set("core.eval.shard", faults.FailN(errEval, func(args ...any) bool {
		return args[1].(int) == 2 // fail on the third trace
	}))
	defer faults.Clear("core.eval.shard")
	if _, err := EvaluateABR(v, ds, abr.NewBB(), 0.08, 1); !errors.Is(err, errEval) {
		t.Fatalf("error = %v, want injected failure", err)
	}
}

// TestAdversaryRestartsRejectCheckpointing pins the guard: restart selection
// and a single checkpoint directory cannot coexist.
func TestAdversaryRestartsRejectCheckpointing(t *testing.T) {
	opt := DefaultABRTrainOptions()
	opt.Restarts = 3
	opt.Checkpoint.Dir = t.TempDir()
	_, _, err := TrainABRAdversary(testVideo(), abr.NewBB(), DefaultABRAdversaryConfig(), opt, mathx.NewRNG(1))
	if err == nil {
		t.Fatal("Restarts>1 with checkpointing accepted")
	}
}
