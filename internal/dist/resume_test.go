package dist

import (
	"encoding/json"
	"errors"
	"testing"

	"advnet/internal/rl"
)

// TestDistCoordinatorKillAndResume: a coordinator that dies mid-run is
// replaced by a fresh process resuming from the checkpoint directory (the
// trainer checkpoint, with the dist lane states riding in the "ppo-replay"
// format). The head run (3 iterations, then gone) plus the resumed tail
// (through iteration 6) must be bitwise identical to an uninterrupted
// 6-iteration VecRunner run — stats stream and final parameters.
func TestDistCoordinatorKillAndResume(t *testing.T) {
	const W, head, total = 4, 3, 6
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, total)
	dir := t.TempDir()

	// Head: train to iteration 3, checkpointing every iteration, then
	// "die" (Close releases the directory claim, as a real crash releases
	// it by pid-liveness).
	a := newTestCoordinator(t, spec, W, head, func(cfg *Config) {
		cfg.Checkpoint = rl.CheckpointConfig{Dir: dir, Every: 1, Keep: 3}
	})
	workerA := startWorker(t, a.Addr())
	headStats, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, workerA)
	a.Close()

	// Tail: a fresh coordinator (fresh trainer, same spec) resumes from
	// the directory and continues to iteration 6 with fresh workers.
	b := newTestCoordinator(t, spec, W, total, func(cfg *Config) {
		cfg.Checkpoint = rl.CheckpointConfig{Dir: dir, Every: 1, Keep: 3}
		cfg.Resume = true
	})
	if b.Iteration() != head {
		t.Fatalf("resumed coordinator at iteration %d, want %d", b.Iteration(), head)
	}
	workerB := startWorker(t, b.Addr())
	tailStats, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, workerB)

	combined := append(append([]rl.IterStats(nil), headStats...), tailStats...)
	assertStatsEqual(t, combined, vecStats)
	if got, want := paramsFingerprint(b.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("resumed fingerprint %#x, uninterrupted %#x", got, want)
	}
}

// TestDistCheckpointDirOwnershipGuard: two live coordinators pointed at the
// same checkpoint directory are a configuration bug; the second must be
// refused at construction with the typed *rl.DirOwnedError instead of
// silently racing the first one's retention pruning.
func TestDistCheckpointDirOwnershipGuard(t *testing.T) {
	dir := t.TempDir()
	a := newTestCoordinator(t, testSpec(), 2, 1, func(cfg *Config) {
		cfg.Checkpoint = rl.CheckpointConfig{Dir: dir, Every: 1}
	})
	_ = a // holds the claim until Close

	raw, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(Config{
		Domain: "pensieve", Spec: raw, Lanes: 2, Iterations: 1,
		Backoff:    testBackoff(),
		Checkpoint: rl.CheckpointConfig{Dir: dir, Every: 1},
	})
	var owned *rl.DirOwnedError
	if !errors.As(err, &owned) {
		t.Fatalf("second coordinator: got %v, want *rl.DirOwnedError", err)
	}
}
