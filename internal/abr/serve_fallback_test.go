package abr

import (
	"sync"
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/serve"
	"advnet/internal/trace"
)

// TestPensieveServeFallbackIdentityToBB proves the degradation contract's
// decision half: every request the engine cannot answer is answered by the
// fallback, and the chosen level is bitwise identical to what a directly
// held abr.BB would have chosen at the same observation. A closed engine is
// the extreme shed — 100% of decisions degrade.
func TestPensieveServeFallbackIdentityToBB(t *testing.T) {
	v := testVideo(0.1)
	rng := mathx.NewRNG(7)
	policy := rl.NewCategoricalPolicy(NewPensieveNet(rng, v.Levels()))
	eng := newEngine(t, serve.NewRegistry(policy.Net()), serve.Config{Workers: 1, MaxBatch: 4})
	eng.Close() // every Select from here on returns ErrEngineClosed
	served := NewPensieveServe(eng)
	directBB := NewBB()

	cfg := trace.RandomConfig{Points: 60, Duration: 4, BandwidthLo: 0.5, BandwidthHi: 5, LatencyLo: 40}
	trng := mathx.NewRNG(101)
	for i := 0; i < 5; i++ {
		tr := trace.GenerateRandom(trng, cfg, "golden")
		s := NewSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig())
		for !s.Done() {
			o := s.Observation()
			want := directBB.SelectLevel(o)
			got := served.SelectLevel(o)
			if got != want {
				t.Fatalf("trace %d chunk %d: fallback level %d, direct BB level %d", i, o.ChunkIndex, got, want)
			}
			s.Step(want)
		}
	}
	if served.Fallbacks() != served.Decisions() || served.Decisions() == 0 {
		t.Fatalf("closed engine: %d/%d decisions via fallback, want all", served.Fallbacks(), served.Decisions())
	}
	if served.FallbackRate() != 1 {
		t.Fatalf("fallback rate %v, want 1", served.FallbackRate())
	}
}

// TestPensieveServeFallbackUnderOverload serves a policy too slow for its
// load — Pensieve's inputs and outputs over 1024-wide hidden layers, so one
// worker's forward pass outlasts the deadline — and drives deadline-carrying
// decisions from concurrent sessions: shed requests must be answered by the
// fallback (valid ladder levels, counted), served requests by the policy,
// and no call may block past its deadline budget.
func TestPensieveServeFallbackUnderOverload(t *testing.T) {
	v := testVideo(0)
	rng := mathx.NewRNG(9)
	policy := rl.NewCategoricalPolicy(nn.NewMLP(rng, []int{FeatureSize(v.Levels()), 1024, 1024, v.Levels()}, nn.Tanh))
	eng := newEngine(t, serve.NewRegistry(policy.Net()), serve.Config{
		Workers: 1, MaxBatch: 2, QueueDepth: 2,
	})
	defer eng.Close()
	p := NewPensieveServe(eng)
	p.SetDeadline(400 * time.Microsecond)

	tr := trace.Constant("c", 1500, 3, 40, 0)
	var wg sync.WaitGroup
	sessions := make([]*Session, 6)
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i] = RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), p)
		}(i)
	}
	wg.Wait()
	for i, s := range sessions {
		if !s.Done() || len(s.Results()) != v.NumChunks() {
			t.Fatalf("session %d did not finish under overload", i)
		}
	}
	want := uint64(len(sessions) * v.NumChunks())
	if p.Decisions() != want {
		t.Fatalf("decisions %d, want %d", p.Decisions(), want)
	}
	if p.Fallbacks() == 0 {
		t.Fatal("overload shed nothing — the storm never exceeded capacity")
	}
	if p.Fallbacks()+eng.Served() != want {
		t.Fatalf("fallbacks %d + served %d != decisions %d", p.Fallbacks(), eng.Served(), want)
	}
	if r := p.FallbackRate(); r <= 0 || r > 1 {
		t.Fatalf("fallback rate %v out of range", r)
	}
}
