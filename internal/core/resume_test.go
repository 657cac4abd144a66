package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"advnet/internal/abr"
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
// until a real write fails (block, a path under the checkpoint directory, is
// pre-created as a non-empty directory, so the atomic rename that would
// publish the file there fails even for root), removes the blocker, resumes
// in a "fresh process" (same arguments, fresh RNG object from the same
// seed), and requires the resumed run to finish bit-for-bit equal to the
// uninterrupted one.
func crashResumeMatchesFull(t *testing.T, workers int, block string, wantResumedStats int) {
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
	blocker := filepath.Join(cfg.Checkpoint.Dir, block)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err = TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
	var linkErr *os.LinkError
	if !errors.As(err, &linkErr) || linkErr.New != blocker {
		t.Fatalf("crashed run error = %v, want the rename onto %s to fail", err, blocker)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
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
	// iterations 0–1); its checkpoint cannot be written, so only iteration 3
	// remains for the resumed process.
	crashResumeMatchesFull(t, 0, "phase2/ckpt-00000004.json", 1)
}

// TestRobustResumeAfterPhase1Crash kills training mid-phase-1, before any
// adversary exists; the resume must reload the phase-1 checkpoint (restoring
// the shared master RNG), finish phase 1, then train the adversary and run
// phase 2 exactly as the uninterrupted run did.
func TestRobustResumeAfterPhase1Crash(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Crash saving global iteration 1: iterations 1, 2 and 3 remain.
	crashResumeMatchesFull(t, 0, "phase1/ckpt-00000002.json", 3)
}

// TestRobustResumeAtPhaseBoundary crashes persisting the trained adversary:
// phase 1 is complete and its final (boundary) checkpoint is on disk, but no
// adversary artifacts exist yet. The resume loads the boundary
// checkpoint, runs zero phase-1 iterations, retrains the adversary, and then
// starts phase 2 on a fresh merged-dataset environment — the pending episode
// restored from the checkpoint belongs to phase 1's environment and must be
// abandoned there, not adopted (regression: the restored episode once
// latched onto phase 2's un-reset environment, a nil-session panic).
func TestRobustResumeAtPhaseBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	crashResumeMatchesFull(t, 0, "adversary.json", 2)
}

// TestRobustResumeAtPhaseBoundaryParallel is the Workers=2 variant, crashing
// in phase 2's first iteration (artifacts saved, phase-2 checkpoint
// directory still empty). The resumed VecRunner loads phase 1's
// boundary checkpoint into the shared trainer collector and runs zero
// iterations; phase 2's fresh worker pool must abandon that pending episode
// rather than adopt its own un-reset environment.
func TestRobustResumeAtPhaseBoundaryParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Global iteration 2 is phase 2's first; its checkpoint is the first
	// phase-2 write.
	crashResumeMatchesFull(t, 2, "phase2/ckpt-00000003.json", 2)
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
	crashResumeMatchesFull(t, 2, "phase1/ckpt-00000002.json", 3)
}

// shardBomb is BB rigged to panic in one session of one evaluation shard.
// The protocol itself runs shard 0 and its clones shards 1, 2, … in clone
// order; shard bomb.shard panics in its session number bomb.session, which
// is the trace bomb.shard + bomb.session·workers.
type shardBomb struct {
	*abr.BB
	shard, sessions int
	bomb            *bombAt
}

type bombAt struct{ shard, session, clones int }

func newShardBomb(shard, session int) *shardBomb {
	return &shardBomb{BB: abr.NewBB(), bomb: &bombAt{shard: shard, session: session}}
}

func (b *shardBomb) Reset() {
	b.BB.Reset()
	b.sessions++
}

func (b *shardBomb) SelectLevel(o *abr.Observation) int {
	if b.shard == b.bomb.shard && b.sessions == b.bomb.session+1 {
		panic("injected shard panic")
	}
	return b.BB.SelectLevel(o)
}

func (b *shardBomb) CloneProtocol() abr.Protocol {
	b.bomb.clones++
	return &shardBomb{BB: b.BB.CloneProtocol().(*abr.BB), shard: b.bomb.clones, bomb: b.bomb}
}

// TestEvaluateABRShardPanicContained runs a protocol that panics on one
// shard's trace and checks the panic surfaces as a typed error naming the
// shard instead of killing the process — on a parallel evaluation and on the
// single-worker one — and that the evaluator still works afterwards.
func TestEvaluateABRShardPanicContained(t *testing.T) {
	v, ds := resumeTestData()
	for _, tc := range []struct{ workers, shard, session int }{
		{workers: 2, shard: 1, session: 1}, // trace 3
		{workers: 1, shard: 0, session: 2}, // trace 2
	} {
		_, err := EvaluateABR(v, ds, newShardBomb(tc.shard, tc.session), 0.08, tc.workers)
		if err == nil {
			t.Fatalf("W=%d: panicking shard reported no error", tc.workers)
		}
		var wpe *par.PanicError
		if !errors.As(err, &wpe) {
			t.Fatalf("W=%d: error %T is not a par.PanicError: %v", tc.workers, err, err)
		}
		if wpe.Index != tc.shard || len(wpe.Stack) == 0 {
			t.Fatalf("W=%d: panic attributed to worker %d (stack %d bytes), want worker %d", tc.workers, wpe.Index, len(wpe.Stack), tc.shard)
		}

		qoes, err := EvaluateABR(v, ds, abr.NewBB(), 0.08, tc.workers)
		if err != nil {
			t.Fatalf("W=%d: evaluator unusable after contained panic: %v", tc.workers, err)
		}
		if len(qoes) != len(ds.Traces) {
			t.Fatalf("W=%d: got %d QoE values, want %d", tc.workers, len(qoes), len(ds.Traces))
		}
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
