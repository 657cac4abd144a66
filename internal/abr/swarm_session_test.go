package abr

import (
	"math"
	"reflect"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// TestApplyChunkMatchesStep: Step must be exactly ApplyChunk over the
// session link's answer — same results, same evolving state — since the
// swarm scheduler calls ApplyChunk directly and both paths must agree.
func TestApplyChunkMatchesStep(t *testing.T) {
	rng := mathx.NewRNG(21)
	video := NewVideo(rng, DefaultVideoConfig())
	mkLink := func() Link {
		return &TraceLink{Trace: &trace.Trace{Name: "t", Points: []trace.Point{
			{Duration: 7, BandwidthMbps: 3},
			{Duration: 5, BandwidthMbps: 0.7},
			{Duration: 9, BandwidthMbps: 6},
		}}, RTTSeconds: 0.08}
	}
	linkA, linkB := mkLink(), mkLink()
	a := NewSession(video, linkA, DefaultSessionConfig())
	b := NewSession(video, linkB, DefaultSessionConfig())
	levels := video.Levels()
	for i := 0; !a.Done(); i++ {
		level := i % levels
		ra := a.Step(level)
		size := video.Size(level, b.NextChunk())
		bw := linkB.BandwidthAt(b.timeS)
		dl := linkB.Download(size, b.timeS)
		rb := b.ApplyChunk(level, dl, bw)
		if ra != rb {
			t.Fatalf("chunk %d: Step %+v != ApplyChunk %+v", i, ra, rb)
		}
	}
	if sa, sb := mutableState(a), mutableState(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("final states diverged:\n%+v\nvs\n%+v", sa, sb)
	}
}

// mutableState is everything Step and ApplyChunk change in a session.
func mutableState(s *Session) []any {
	return []any{s.chunk, s.lastLevel, s.bufferS, s.timeS, s.totalQoE, s.totalRebufS, s.results, s.throughputHist, s.downloadHist}
}

// TestLeanHistoryWindow: a lean session must expose the same trailing
// history a full session would, within the guaranteed window, and must be
// allocation-free once warm.
func TestLeanHistoryWindow(t *testing.T) {
	rng := mathx.NewRNG(22)
	video := NewVideo(rng, DefaultVideoConfig())
	const capN = 5
	leanCfg := DefaultSessionConfig()
	leanCfg.HistoryCap = capN
	link := &ConstantLink{BandwidthMbps: 2.5, RTTSeconds: 0.05}
	full := NewSession(video, link, DefaultSessionConfig())
	lean := NewSession(video, link, leanCfg)

	for i := 0; !full.Done(); i++ {
		level := (i * 7) % video.Levels()
		rf := full.Step(level)
		rl := lean.Step(level)
		if rf != rl {
			t.Fatalf("chunk %d: full %+v != lean %+v", i, rf, rl)
		}
		fo, lo := full.Observation(), lean.Observation()
		if full.Done() != lean.Done() {
			t.Fatal("done state diverged")
		}
		if fo == nil {
			continue
		}
		// The lean history must hold between capN and 2*capN samples once
		// enough chunks have passed, and its tail must equal the full one's.
		n := len(lo.ThroughputHist)
		if i+1 <= 2*capN {
			if n != i+1 {
				t.Fatalf("chunk %d: lean history %d samples before any compaction, want %d", i, n, i+1)
			}
		} else if n < capN || n > 2*capN {
			t.Fatalf("chunk %d: lean history holds %d samples, want within [%d,%d]", i, n, capN, 2*capN)
		}
		fullTail := fo.ThroughputHist[len(fo.ThroughputHist)-n:]
		if !reflect.DeepEqual(lo.ThroughputHist, fullTail) {
			t.Fatalf("chunk %d: lean throughput history %v != full tail %v", i, lo.ThroughputHist, fullTail)
		}
		if lo.LastThroughput != fo.LastThroughput || lo.LastDownloadS != fo.LastDownloadS {
			t.Fatalf("chunk %d: lean last-sample fields diverged", i)
		}
	}
	if len(lean.Results()) != 0 {
		t.Errorf("lean session retained %d StepResults, want 0", len(lean.Results()))
	}
	if lean.TotalRebuffer() != full.TotalRebuffer() || lean.MeanQoE() != full.MeanQoE() {
		t.Errorf("lean aggregates diverged: rebuf %v vs %v, QoE %v vs %v",
			lean.TotalRebuffer(), full.TotalRebuffer(), lean.MeanQoE(), full.MeanQoE())
	}
}

// TestLeanSessionSteadyStateAllocs pins the lean session + reused
// observation at zero allocations per chunk once the history buffer exists.
func TestLeanSessionSteadyStateAllocs(t *testing.T) {
	rng := mathx.NewRNG(23)
	video := NewVideo(rng, VideoConfig{
		NumChunks:    200000,
		ChunkSeconds: 4,
		BitratesKbps: []float64{300, 750, 1200},
		VBRJitter:    0.1,
	})
	cfg := DefaultSessionConfig()
	cfg.HistoryCap = 8
	s := NewSession(video, nil, cfg)
	var o Observation
	o.NextSizesBits = make([]float64, 0, video.Levels())
	for i := 0; i < 64; i++ {
		s.ApplyChunk(i%3, 1.5, 2.0) // warm past the lazy history allocation
	}
	avg := testing.AllocsPerRun(200, func() {
		if !s.ObservationInto(&o) {
			t.Fatal("session finished mid-measurement")
		}
		s.ApplyChunk(1, 1.5, 2.0)
	})
	if avg != 0 {
		t.Fatalf("lean observe+apply allocates %v per chunk, want 0", avg)
	}
}

// TestObservationIntoMatchesObservation: the reusing variant must produce
// exactly what the allocating one does.
func TestObservationIntoMatchesObservation(t *testing.T) {
	rng := mathx.NewRNG(24)
	video := NewVideo(rng, DefaultVideoConfig())
	link := &ConstantLink{BandwidthMbps: 1.8, RTTSeconds: 0.08}
	s := NewSession(video, link, DefaultSessionConfig())
	var reused Observation
	for i := 0; !s.Done(); i++ {
		fresh := s.Observation()
		if !s.ObservationInto(&reused) {
			t.Fatal("ObservationInto reported done on live session")
		}
		if !reflect.DeepEqual(*fresh, reused) {
			t.Fatalf("chunk %d: fresh %+v != reused %+v", i, *fresh, reused)
		}
		s.Step(i % video.Levels())
	}
	if s.Observation() != nil || s.ObservationInto(&reused) {
		t.Error("finished session still yields observations")
	}
}

// TestModLargeArguments: the cyclic-replay phase used to be computed by
// truncating x/m through int, which overflows (garbage phase) once the
// quotient passes 2^63. Floor-based mod must stay exact in-range and finite
// and in [0, m) far beyond it.
func TestModLargeArguments(t *testing.T) {
	const m = 66.0 // total duration of a short trace
	for _, x := range []float64{0, 13.25, 65.999, 66, 1e6 + 0.5, 9.3e15} {
		want := x - math.Trunc(x/m)*m // the historical in-range arithmetic
		if got := mod(x, m); got != want {
			t.Errorf("mod(%v, %v) = %v, want %v", x, m, got, want)
		}
	}
	for _, x := range []float64{1e19, 1e300, math.MaxFloat64} {
		got := mod(x, m)
		if !(got >= 0 && got < m) {
			t.Errorf("mod(%v, %v) = %v, outside [0, %v)", x, m, got, m)
		}
	}
}

// TestTraceLinkDownloadHugeStart: a download starting at an astronomically
// late session time must still terminate with a finite, sane duration
// (before the fix the int overflow inside mod produced a garbage phase).
func TestTraceLinkDownloadHugeStart(t *testing.T) {
	l := &TraceLink{Trace: &trace.Trace{Name: "tiny", Points: []trace.Point{
		{Duration: 0.5, BandwidthMbps: 4},
		{Duration: 0.25, BandwidthMbps: 1},
	}}, RTTSeconds: 0.08}
	for _, start := range []float64{0, 1e9, 1e12} {
		got := l.Download(2e6, start)
		// 2 Mbit over a link alternating 4 and 1 Mbps takes between 0.5s
		// (all-fast) and 2s (all-slow), plus RTT.
		if !(got >= 0.5 && got <= 2.1) {
			t.Errorf("Download(2e6, %v) = %v, outside plausible [0.58, 2.08]", start, got)
		}
	}
	// Beyond ~2^53 the sub-second elapsed time is below float64 resolution
	// at t's magnitude, so the guarantee is termination with a finite,
	// non-negative duration — before the fix the garbage quotient from the
	// int overflow made this spin or index nonsense.
	for _, start := range []float64{1e18, 1e30, 1e300} {
		got := l.Download(2e6, start)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("Download(2e6, %v) = %v", start, got)
		}
	}
}
