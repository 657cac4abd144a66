package abr

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// TestSessionStateRoundTrip streams half a video, snapshots the session,
// restores it into a fresh Session, and checks the two finish the remaining
// chunks bit-for-bit identically.
func TestSessionStateRoundTrip(t *testing.T) {
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(3), trace.DefaultFCCLike(), 2, "fcc")
	link := &TraceLink{Trace: ds.Traces[0], RTTSeconds: 0.08}
	cfg := DefaultSessionConfig()

	s := NewSession(video, link, cfg)
	for i := 0; i < video.NumChunks()/2; i++ {
		s.Step(i % video.Levels())
	}
	st := s.State()

	r, err := RestoreSession(video, link, cfg, st)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	for !s.Done() {
		lvl := s.NextChunk() % video.Levels()
		a, b := s.Step(lvl), r.Step(lvl)
		if a != b {
			t.Fatalf("chunk %d diverged:\noriginal %+v\nrestored %+v", a.ChunkIndex, a, b)
		}
	}
	if !r.Done() || s.TotalQoE() != r.TotalQoE() || s.timeS != r.timeS {
		t.Fatalf("final state diverged: QoE %v vs %v, time %v vs %v",
			s.TotalQoE(), r.TotalQoE(), s.timeS, r.timeS)
	}
}

func TestRestoreSessionRejects(t *testing.T) {
	video := testVideo(0)
	link := &ConstantLink{BandwidthMbps: 2}
	cfg := DefaultSessionConfig()
	cases := map[string]SessionState{
		"chunk out of range":   {Chunk: video.NumChunks() + 1},
		"level out of range":   {LastLevel: video.Levels()},
		"inconsistent history": {Results: make([]StepResult, 2), ThroughputHist: []float64{1}, DownloadHist: []float64{1}},
	}
	for name, st := range cases {
		if _, err := RestoreSession(video, link, cfg, st); err == nil {
			t.Errorf("%s: invalid state accepted", name)
		}
	}
}

// TestTrainEnvStateRoundTrip captures a TrainEnv mid-episode and restores it
// into an env built with a different RNG seed; both must then produce
// identical observations, rewards, and — past the episode boundary — sample
// the same next traces, proving the checkpoint is authoritative.
func TestTrainEnvStateRoundTrip(t *testing.T) {
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 4, "fcc")
	cfg := DefaultSessionConfig()

	a := NewTrainEnv(video, ds, cfg, 0.08, mathx.NewRNG(42))
	a.Reset()
	for i := 0; i < 10; i++ {
		a.Step([]float64{float64(i % video.Levels())})
	}
	state, err := a.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}

	b := NewTrainEnv(video, ds, cfg, 0.08, mathx.NewRNG(999))
	if err := b.SetEnvState(state); err != nil {
		t.Fatalf("SetEnvState: %v", err)
	}

	// Drive both envs through the rest of this episode and two more.
	episodes := 0
	for step := 0; episodes < 3 && step < 10_000; step++ {
		act := []float64{float64(step % video.Levels())}
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
			episodes++
			ro, rb := a.Reset(), b.Reset()
			if a.traceIdx != b.traceIdx {
				t.Fatalf("episode %d sampled different traces: %d vs %d", episodes, a.traceIdx, b.traceIdx)
			}
			for j := range ro {
				if ro[j] != rb[j] {
					t.Fatalf("reset obs[%d] diverged", j)
				}
			}
		}
	}
	if episodes != 3 {
		t.Fatalf("only %d episodes completed", episodes)
	}
}

// TestTrainEnvStateIdleEpisode checks the no-active-session encoding: state
// captured right after an episode finishes restores with only the RNG.
func TestTrainEnvStateIdleEpisode(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(7), trace.DefaultFCCLike(), 3, "fcc")
	e := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(1))
	e.Reset()
	for !e.session.Done() {
		e.Step([]float64{0})
	}
	state, err := e.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}
	f := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(2))
	if err := f.SetEnvState(state); err != nil {
		t.Fatalf("SetEnvState: %v", err)
	}
	if f.session != nil || f.traceIdx != -1 {
		t.Fatal("idle state restored a live session")
	}
	e.Reset()
	f.Reset()
	if e.traceIdx != f.traceIdx {
		t.Fatalf("next trace diverged: %d vs %d", e.traceIdx, f.traceIdx)
	}
}

func TestTrainEnvSetEnvStateRejects(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(9), trace.DefaultFCCLike(), 2, "fcc")
	e := NewTrainEnv(video, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(1))
	if err := e.SetEnvState([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := e.SetEnvState([]byte(`{"rng":{"s":1},"trace_idx":99,"session":{"chunk":0}}`)); err == nil {
		t.Fatal("out-of-range trace index accepted")
	}
	// Rejection must not have clobbered the env.
	if e.rng == nil {
		t.Fatal("env mutated on rejected state")
	}
	obs := e.Reset()
	if len(obs) != e.ObservationSize() {
		t.Fatal("env unusable after rejected state")
	}
}
