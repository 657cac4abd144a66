package abr

import (
	"math"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
)

// TestWindowOptimalDominatesAnyPathProperty is the core oracle invariant the
// adversary's reward relies on: the window optimum is an upper bound on the
// QoE of *every* level sequence, for arbitrary bandwidths and start states.
func TestWindowOptimalDominatesAnyPathProperty(t *testing.T) {
	v := testVideo(0)
	q := DefaultQoE()
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 3 + rng.Intn(3)
		bw := make([]float64, n)
		for i := range bw {
			bw[i] = rng.Uniform(0.8, 4.8)
		}
		startChunk := rng.Intn(v.NumChunks() - n)
		startBuffer := rng.Uniform(0, 30)
		prev := rng.Intn(v.Levels()+1) - 1 // -1..5

		opt := WindowOptimal(v, q, startChunk, bw, 0.08, startBuffer, 60, prev)

		// Simulate a random level path over the same window.
		buffer := startBuffer
		total := 0.0
		p := prev
		for j := 0; j < n; j++ {
			level := rng.Intn(v.Levels())
			size := v.Size(level, startChunk+j)
			dl := size/(bw[j]*1e6) + 0.08
			rebuf := math.Max(0, dl-buffer)
			buffer = math.Max(0, buffer-dl) + v.ChunkSeconds
			if buffer > 60 {
				buffer = 60
			}
			prevMbps := 0.0
			if p >= 0 {
				prevMbps = v.BitrateMbps(p)
			}
			total += q.Chunk(v.BitrateMbps(level), prevMbps, rebuf, p < 0)
			p = level
		}
		return total <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowOptimalScalingProperty: scaling every bandwidth of a window
// by k ≥ 1 never lowers the window optimum. For a fixed level sequence more
// bandwidth only shortens downloads, so it never adds rebuffering and never
// empties the buffer sooner, while the bitrate and smoothness terms depend
// on the levels alone; the maximum over sequences inherits that. The claim
// is made for this exhaustive oracle only: the heuristics and the
// buffer-discretised OfflineOptimal are not claimed to be monotone.
func TestWindowOptimalScalingProperty(t *testing.T) {
	v := testVideo(0)
	q := DefaultQoE()
	for seed := uint64(1); seed <= 2000; seed++ {
		rng := mathx.NewRNG(seed)
		bw := make([]float64, 1+rng.Intn(4))
		for i := range bw {
			bw[i] = rng.Uniform(0.2, 6)
		}
		startChunk := rng.Intn(v.NumChunks() - len(bw))
		startBuffer := rng.Uniform(0, 30)
		prev := rng.Intn(v.Levels()+1) - 1
		base := WindowOptimal(v, q, startChunk, bw, 0.08, startBuffer, 60, prev)
		for _, k := range []float64{1.25, 2, 4} {
			scaled := make([]float64, len(bw))
			for i, b := range bw {
				scaled[i] = k * b
			}
			if got := WindowOptimal(v, q, startChunk, scaled, 0.08, startBuffer, 60, prev); got < base-1e-9 {
				t.Fatalf("seed %d: bandwidth ×%v lowered the window optimum %v to %v (bw %v, chunk %d, buffer %v, prev %d)",
					seed, k, base, got, bw, startChunk, startBuffer, prev)
			}
		}
	}
}

// TestChunkLinkReplayReproducesSessionProperty: running any deterministic
// protocol online with per-chunk bandwidths and replaying those bandwidths
// through a ChunkLink yields the identical session.
func TestChunkLinkReplayReproducesSessionProperty(t *testing.T) {
	v := testVideo(0.1)
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		bws := make([]float64, v.NumChunks())
		for i := range bws {
			bws[i] = rng.Uniform(0.8, 4.8)
		}
		for _, mk := range []func() Protocol{
			func() Protocol { return NewBB() },
			func() Protocol { return NewMPC() },
			func() Protocol { return NewBOLA() },
		} {
			// Online run.
			link := &ConstantLink{RTTSeconds: 0.08}
			online := NewSession(v, link, DefaultSessionConfig())
			p := mk()
			p.Reset()
			for i := 0; !online.Done(); i++ {
				link.BandwidthMbps = bws[i]
				online.Step(p.SelectLevel(online.Observation()))
			}
			// Chunk-indexed replay.
			replay := RunSession(v, &ChunkLink{Bandwidths: bws, RTTSeconds: 0.08},
				DefaultSessionConfig(), mk())
			if math.Abs(online.TotalQoE()-replay.TotalQoE()) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestQoEMonotoneInRebufferProperty: more stalling never increases a chunk's
// QoE, all else equal.
func TestQoEMonotoneInRebufferProperty(t *testing.T) {
	q := DefaultQoE()
	f := func(bitrate, prev, r1, r2 float64) bool {
		bitrate = mathx.Clamp(math.Abs(bitrate), 0.3, 4.3)
		prev = mathx.Clamp(math.Abs(prev), 0.3, 4.3)
		a := mathx.Clamp(math.Abs(r1), 0, 100)
		b := mathx.Clamp(math.Abs(r2), 0, 100)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return q.Chunk(bitrate, prev, hi, false) <= q.Chunk(bitrate, prev, lo, false)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMPCDeterministicProperty: MPC must be a pure function of its
// observation history — two fresh instances fed identical sessions agree.
func TestMPCDeterministicProperty(t *testing.T) {
	v := testVideo(0)
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		bws := make([]float64, 10)
		for i := range bws {
			bws[i] = rng.Uniform(0.8, 4.8)
		}
		run := func() []int {
			link := &ChunkLink{Bandwidths: bws, RTTSeconds: 0.08}
			s := NewSession(v, link, DefaultSessionConfig())
			m := NewMPC()
			var levels []int
			for i := 0; i < 10; i++ {
				l := m.SelectLevel(s.Observation())
				levels = append(levels, l)
				s.Step(l)
			}
			return levels
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionTimeMonotoneProperty: session time never decreases and grows by
// at least the download time of each chunk.
func TestSessionTimeMonotoneProperty(t *testing.T) {
	v := testVideo(0.1)
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		link := &ConstantLink{BandwidthMbps: 1, RTTSeconds: 0.08}
		s := NewSession(v, link, DefaultSessionConfig())
		last := 0.0
		for !s.Done() {
			link.BandwidthMbps = rng.Uniform(0.8, 4.8)
			res := s.Step(rng.Intn(v.Levels()))
			if s.Time() < last+res.DownloadS-1e-9 {
				return false
			}
			last = s.Time()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
