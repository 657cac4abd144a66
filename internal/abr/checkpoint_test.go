package abr

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// replayOnto gives b a's reset seed, resets b and steps it through acts —
// what rl.Lane.Restore does with a lane state.
func replayOnto(t *testing.T, a, b *TrainEnv, acts [][]float64) {
	t.Helper()
	seed, err := a.ResetSeed()
	if err != nil {
		t.Fatalf("ResetSeed: %v", err)
	}
	if err := b.SetResetSeed(seed); err != nil {
		t.Fatalf("SetResetSeed: %v", err)
	}
	b.Reset()
	for _, act := range acts {
		b.Step(act)
	}
}

// stepInLockstep drives a and b with the same actions through the rest of
// the current episode and episodes-1 more, failing on the first observation,
// reward, done flag or next trace that differs.
func stepInLockstep(t *testing.T, a, b *TrainEnv, episodes int) {
	t.Helper()
	done := 0
	for step := 0; done < episodes && step < 10_000; step++ {
		act := []float64{float64(step % a.Video.Levels())}
		ao, ar, ad := a.Step(act)
		bo, br, bd := b.Step(act)
		if ar != br || ad != bd {
			t.Fatalf("step %d diverged: reward %v vs %v, done %v vs %v", step, ar, br, ad, bd)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("step %d obs[%d] diverged: %v vs %v", step, j, ao[j], bo[j])
			}
		}
		if ad {
			done++
			ro, rb := a.Reset(), b.Reset()
			if a.traceIdx != b.traceIdx {
				t.Fatalf("episode %d sampled different traces: %d vs %d", done, a.traceIdx, b.traceIdx)
			}
			for j := range ro {
				if ro[j] != rb[j] {
					t.Fatalf("reset obs[%d] diverged", j)
				}
			}
		}
	}
	if done != episodes {
		t.Fatalf("only %d episodes completed", done)
	}
}

// TestTrainEnvStateRoundTrip: a TrainEnv mid-episode is its reset seed plus
// the actions since that Reset. An env built with a different RNG seed,
// given the seed, reset and stepped through the same actions, then produces
// identical observations and rewards and — past the episode boundary —
// samples the same next traces, so the seed is authoritative.
func TestTrainEnvStateRoundTrip(t *testing.T) {
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 4, "fcc")
	cfg := DefaultSessionConfig()

	a := NewTrainEnv(video, ds, cfg, 0.08, mathx.NewRNG(42))
	a.Reset()
	var acts [][]float64
	for i := 0; i < 10; i++ {
		acts = append(acts, []float64{float64(i % video.Levels())})
		a.Step(acts[i])
	}
	b := NewTrainEnv(video, ds, cfg, 0.08, mathx.NewRNG(999))
	replayOnto(t, a, b, acts)
	stepInLockstep(t, a, b, 3)
}

// TestTrainEnvStateIdleEpisode: the reset seed is what the last Reset drew
// from, however far the episode has gone since — or, before an env's first
// Reset, what that Reset will draw from. An env given a fresh env's seed
// reports it back unchanged and resets onto the trace the fresh env does.
func TestTrainEnvStateIdleEpisode(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(7), trace.DefaultFCCLike(), 3, "fcc")
	e := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(1))
	fresh, err := e.ResetSeed()
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	for !e.session.Done() {
		e.Step([]float64{0})
	}
	if done, _ := e.ResetSeed(); string(done) != string(fresh) {
		t.Fatalf("seed after a finished episode %s, want the one its Reset drew from %s", done, fresh)
	}
	f := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(2))
	if err := f.SetResetSeed(fresh); err != nil {
		t.Fatalf("SetResetSeed: %v", err)
	}
	if again, _ := f.ResetSeed(); string(again) != string(fresh) {
		t.Fatalf("seed after SetResetSeed %s, want %s", again, fresh)
	}
	first := e.traceIdx
	f.Reset()
	if f.traceIdx != first {
		t.Fatalf("reset from the fresh seed drew trace %d, want %d", f.traceIdx, first)
	}
}

func TestTrainEnvSetEnvStateRejects(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(9), trace.DefaultFCCLike(), 2, "fcc")
	e := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(1))
	before, err := e.ResetSeed()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetResetSeed([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := e.SetResetSeed([]byte(`{"rng":{"state":1},"lane":{"index":0,"count":2,"cursor":{"n":1,"seed":3,"epoch":0,"pos":0}}}`)); err == nil {
		t.Fatal("one-lane env accepted a lane cursor")
	}
	// Rejection must not have clobbered the env.
	if after, _ := e.ResetSeed(); string(after) != string(before) {
		t.Fatalf("refused seeds changed the env's seed to %s, was %s", after, before)
	}
	obs := e.Reset()
	if len(obs) != e.ObservationSize() {
		t.Fatal("env unusable after rejected seeds")
	}
}
