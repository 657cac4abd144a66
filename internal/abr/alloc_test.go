package abr

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// TestRunSessionAllocsPerSession: every protocol decides through one
// Observation that RunSession refills, a full session reserves its records
// at its first chunk, and no protocol allocates per decision once warm, so a
// session allocates the same on a 10-chunk video as on a 48-chunk one.
func TestRunSessionAllocsPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are enforced in the uninstrumented build")
	}
	rng := mathx.NewRNG(29)
	tr := trace.GenerateFCCLike(rng, trace.DefaultFCCLike(), "fcc")
	videos := map[int]*Video{}
	for _, n := range []int{10, 48} {
		cfg := DefaultVideoConfig()
		cfg.NumChunks, cfg.VBRJitter = n, 0.1
		videos[n] = NewVideo(mathx.NewRNG(1), cfg)
	}
	pensieve := NewPensieve(rl.NewCategoricalPolicy(NewPensieveNet(rng, videos[48].Levels())))
	for _, p := range []Protocol{NewBB(), NewRateBased(), NewBOLA(), NewMPC(), pensieve} {
		allocs := map[int]float64{}
		for n, v := range videos {
			link := &TraceLink{Trace: tr, RTTSeconds: 0.08}
			RunSession(v, link, DefaultSessionConfig(), p) // warm the protocol's and the link's scratch
			allocs[n] = testing.AllocsPerRun(20, func() { RunSession(v, link, DefaultSessionConfig(), p) })
		}
		if allocs[10] != allocs[48] {
			t.Errorf("%s: RunSession allocates %v on 10 chunks, %v on 48: a decision allocates", p.Name(), allocs[10], allocs[48])
		}
		t.Logf("%s: %v allocs per session", p.Name(), allocs[48])
	}
}
