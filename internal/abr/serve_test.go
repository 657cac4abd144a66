package abr

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/serve"
	"advnet/internal/trace"
)

// TestPensieveServeDecisionIdentity drives golden-trace sessions with the
// direct Pensieve protocol and checks that the serving engine — batched GEMM
// path and row path alike — produces bitwise the same level at every single
// chunk observation.
func TestPensieveServeDecisionIdentity(t *testing.T) {
	v := testVideo(0.1)
	rng := mathx.NewRNG(7)
	policy := rl.NewCategoricalPolicy(NewPensieveNet(rng, v.Levels()))
	direct := NewPensieve(policy)

	for _, tc := range []struct {
		name string
		cfg  serve.Config
	}{
		{"gemm", serve.Config{Workers: 2, MaxBatch: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := serve.NewRegistry(policy.Net())
			eng := newEngine(t, reg, tc.cfg)
			defer eng.Close()
			served := NewPensieveServe(eng)

			cfg := trace.RandomConfig{Points: 60, Duration: 4, BandwidthLo: 0.5, BandwidthHi: 5, LatencyLo: 40}
			trng := mathx.NewRNG(101)
			for i := 0; i < 5; i++ {
				tr := trace.GenerateRandom(trng, cfg, "golden")
				s := NewSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig())
				for !s.Done() {
					o := s.Observation()
					want := direct.SelectLevel(o)
					got := served.SelectLevel(o)
					if got != want {
						t.Fatalf("trace %d chunk %d: served level %d, direct level %d", i, o.ChunkIndex, got, want)
					}
					s.Step(want)
				}
			}
		})
	}
}

// TestPensieveServeRunsSessions checks the adapter end to end as the protocol
// driving full sessions, including concurrent sessions over one engine.
func TestPensieveServeRunsSessions(t *testing.T) {
	v := testVideo(0)
	rng := mathx.NewRNG(9)
	policy := rl.NewCategoricalPolicy(NewPensieveNet(rng, v.Levels()))
	eng := newEngine(t, serve.NewRegistry(policy.Net()), serve.Config{Workers: 2, MaxBatch: 8})
	defer eng.Close()
	p := NewPensieveServe(eng)

	tr := trace.Constant("c", 1500, 3, 40, 0)
	done := make(chan *Session, 3)
	for i := 0; i < 3; i++ {
		go func() {
			done <- RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), p)
		}()
	}
	for i := 0; i < 3; i++ {
		s := <-done
		if !s.Done() || len(s.Results()) != v.NumChunks() {
			t.Fatal("served session did not finish the video")
		}
	}
	if eng.Served() != uint64(3*v.NumChunks()) {
		t.Fatalf("engine served %d decisions, want %d", eng.Served(), 3*v.NumChunks())
	}
}

// newEngine starts an engine whose Config the test knows is valid.
func newEngine(t testing.TB, reg *serve.Registry, cfg serve.Config) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
