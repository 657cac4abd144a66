package abr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

func testVideo(jitter float64) *Video {
	cfg := DefaultVideoConfig()
	cfg.VBRJitter = jitter
	return NewVideo(mathx.NewRNG(1), cfg)
}

func TestVideoValidate(t *testing.T) {
	v := testVideo(0.1)
	if err := v.Validate(); err != nil {
		t.Fatalf("valid video rejected: %v", err)
	}
	if v.NumChunks() != 48 || v.Levels() != 6 {
		t.Fatalf("dimensions %d x %d", v.NumChunks(), v.Levels())
	}
	bad := &Video{ChunkSeconds: 4, BitratesKbps: []float64{300, 200}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-ascending ladder accepted")
	}
}

func TestVideoCBRSizes(t *testing.T) {
	v := testVideo(0)
	for l, kbps := range v.BitratesKbps {
		for c := 0; c < v.NumChunks(); c++ {
			want := kbps * 1000 * v.ChunkSeconds
			if v.Size(l, c) != want {
				t.Fatalf("size[%d][%d] = %v, want %v", l, c, v.Size(l, c), want)
			}
		}
	}
}

func TestVideoVBRCorrelatedAcrossLevels(t *testing.T) {
	v := testVideo(0.1)
	// The complexity factor is shared: size ratio between two levels must be
	// the nominal bitrate ratio for every chunk.
	want := v.BitratesKbps[3] / v.BitratesKbps[1]
	for c := 0; c < v.NumChunks(); c++ {
		got := v.Size(3, c) / v.Size(1, c)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("chunk %d ratio %v, want %v", c, got, want)
		}
	}
}

func TestQoEChunk(t *testing.T) {
	q := DefaultQoE()
	if got := q.Chunk(2, 0, 0, true); got != 2 {
		t.Errorf("first chunk QoE %v", got)
	}
	// Rebuffering: 2 - 4.3*1 = -2.3 (no smooth penalty on first chunk).
	if got := q.Chunk(2, 5, 1, true); math.Abs(got-(-2.3)) > 1e-12 {
		t.Errorf("rebuffer QoE %v", got)
	}
	// Smoothness: 2 - |2-3| = 1.
	if got := q.Chunk(2, 3, 0, false); got != 1 {
		t.Errorf("smooth QoE %v", got)
	}
}

func TestConstantLinkDownload(t *testing.T) {
	l := &ConstantLink{BandwidthMbps: 2, RTTSeconds: 0.1}
	// 4 Mbit at 2 Mbps = 2s + RTT.
	if got := l.Download(4e6, 0); math.Abs(got-2.1) > 1e-12 {
		t.Fatalf("download time %v", got)
	}
	if l.BandwidthAt(123) != 2 {
		t.Fatal("BandwidthAt")
	}
}

func TestTraceLinkIntegratesIntervals(t *testing.T) {
	tr := trace.StepPattern("s", 0, [2]float64{1, 1}, [2]float64{10, 2})
	l := &TraceLink{Trace: tr}
	// 3 Mbit: 1 Mbit in the first second (1 Mbps), then 2 Mbit at 2 Mbps = 1s.
	if got := l.Download(3e6, 0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("download time %v, want 2", got)
	}
	// Starting mid-trace at t=1 (2 Mbps): 3 Mbit takes 1.5s.
	if got := l.Download(3e6, 1); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("download time %v, want 1.5", got)
	}
}

func TestTraceLinkZeroBandwidthInterval(t *testing.T) {
	tr := &trace.Trace{Name: "z", Points: []trace.Point{
		{Duration: 1, BandwidthMbps: 0},
		{Duration: 1, BandwidthMbps: 1},
	}}
	l := &TraceLink{Trace: tr}
	// Must wait out the dead interval: 1 Mbit needs 1s dead + 1s at 1 Mbps.
	if got := l.Download(1e6, 0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("download time %v, want 2", got)
	}
}

func TestSessionBufferDynamics(t *testing.T) {
	v := testVideo(0)
	link := &ConstantLink{BandwidthMbps: 10}
	s := NewSession(v, link, DefaultSessionConfig())

	// Chunk 0 at level 0: 1.2 Mbit / 10 Mbps = 0.12s download. Buffer was
	// empty, so rebuffer = 0.12s, then buffer = 4s.
	res := s.Step(0)
	if math.Abs(res.DownloadS-0.12) > 1e-9 {
		t.Fatalf("download %v", res.DownloadS)
	}
	if math.Abs(res.RebufferS-0.12) > 1e-9 {
		t.Fatalf("rebuffer %v", res.RebufferS)
	}
	if math.Abs(res.BufferS-4) > 1e-9 {
		t.Fatalf("buffer %v", res.BufferS)
	}
	// Next chunk: buffer covers the download, no rebuffering.
	res = s.Step(0)
	if res.RebufferS != 0 {
		t.Fatalf("unexpected rebuffer %v", res.RebufferS)
	}
	if math.Abs(res.BufferS-(4-0.12+4)) > 1e-9 {
		t.Fatalf("buffer %v", res.BufferS)
	}
}

func TestSessionBufferNeverNegativeProperty(t *testing.T) {
	rng := mathx.NewRNG(7)
	v := testVideo(0.1)
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		link := &ConstantLink{BandwidthMbps: 0.3 + 5*r.Float64()}
		s := NewSession(v, link, DefaultSessionConfig())
		for !s.Done() {
			link.BandwidthMbps = 0.3 + 5*r.Float64()
			res := s.Step(r.Intn(v.Levels()))
			if res.BufferS < 0 || res.BufferS > 60+1e-9 {
				return false
			}
			if res.RebufferS < 0 || res.DownloadS <= 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSessionBufferCapWait(t *testing.T) {
	v := testVideo(0)
	cfg := DefaultSessionConfig()
	cfg.BufferCapS = 10
	link := &ConstantLink{BandwidthMbps: 1000} // near-instant downloads
	s := NewSession(v, link, cfg)
	var waited float64
	for !s.Done() {
		res := s.Step(0)
		waited += res.WaitS
		if res.BufferS > 10+1e-9 {
			t.Fatalf("buffer %v exceeds cap", res.BufferS)
		}
	}
	if waited == 0 {
		t.Fatal("fast link never hit the buffer cap")
	}
}

func TestSessionQoEDecomposition(t *testing.T) {
	// TotalQoE must equal the sum of per-chunk QoE values, and the QoE must
	// follow the linear formula recomputed from the records.
	v := testVideo(0.1)
	tr := trace.Constant("c", 1000, 2.0, 40, 0)
	s := RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewBB())
	var sum, recomputed float64
	q := DefaultQoE()
	prev := 0.0
	for i, r := range s.Results() {
		sum += r.QoE
		recomputed += q.Chunk(r.BitrateMbps, prev, r.RebufferS, i == 0)
		prev = r.BitrateMbps
	}
	if math.Abs(sum-s.TotalQoE()) > 1e-9 {
		t.Fatalf("TotalQoE %v != sum %v", s.TotalQoE(), sum)
	}
	if math.Abs(recomputed-s.TotalQoE()) > 1e-9 {
		t.Fatalf("QoE decomposition mismatch: %v vs %v", recomputed, s.TotalQoE())
	}
	if math.Abs(s.MeanQoE()-s.TotalQoE()/48) > 1e-12 {
		t.Fatal("MeanQoE inconsistent")
	}
}

func TestBBThresholds(t *testing.T) {
	b := NewBB()
	obs := &Observation{Levels: 6, BitratesKbps: DefaultBitratesKbps}
	obs.BufferS = 5
	if b.SelectLevel(obs) != 0 {
		t.Error("below reservoir should pick lowest")
	}
	obs.BufferS = 20
	if b.SelectLevel(obs) != 5 {
		t.Error("above cushion should pick highest")
	}
	obs.BufferS = 12.5
	mid := b.SelectLevel(obs)
	if mid <= 0 || mid >= 5 {
		t.Errorf("mid-band level %d not interior", mid)
	}
}

func TestBBMonotoneInBuffer(t *testing.T) {
	b := NewBB()
	obs := &Observation{Levels: 6, BitratesKbps: DefaultBitratesKbps}
	last := -1
	for buf := 0.0; buf <= 25; buf += 0.25 {
		obs.BufferS = buf
		l := b.SelectLevel(obs)
		if l < last {
			t.Fatalf("BB not monotone: buffer %v chose %d after %d", buf, l, last)
		}
		last = l
	}
}

func TestRateBasedPicksAffordableLevel(t *testing.T) {
	r := NewRateBased()
	obs := &Observation{
		Levels:         6,
		BitratesKbps:   DefaultBitratesKbps,
		ThroughputHist: []float64{2.0, 2.0, 2.0}, // predicts 2 Mbps, budget 1.8 Mbps
	}
	if got := r.SelectLevel(obs); got != 2 { // 1200 kbps <= 1800 < 1850
		t.Fatalf("level %d, want 2", got)
	}
	obs.ThroughputHist = nil
	if r.SelectLevel(obs) != 0 {
		t.Fatal("no history should pick lowest")
	}
}

func TestHarmonicMean(t *testing.T) {
	if HarmonicMean(nil, 5) != 0 {
		t.Error("empty")
	}
	if got := HarmonicMean([]float64{1, 1, 1}, 5); math.Abs(got-1) > 1e-12 {
		t.Errorf("uniform %v", got)
	}
	// HM(1,3) = 2/(1+1/3) = 1.5
	if got := HarmonicMean([]float64{9, 9, 1, 3}, 2); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("windowed %v", got)
	}
	if HarmonicMean([]float64{1, 0}, 5) != 0 {
		t.Error("zero sample should yield 0")
	}
}

func TestMPCPrefersHighBitrateOnFastLink(t *testing.T) {
	v := testVideo(0)
	tr := trace.Constant("fast", 1000, 6.0, 40, 0)
	s := RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewMPC())
	// After warm-up MPC should settle on the top level (4300 kbps < 6 Mbps).
	res := s.Results()
	for _, r := range res[8:] {
		if r.Level != 5 {
			t.Fatalf("chunk %d level %d, want 5", r.ChunkIndex, r.Level)
		}
	}
}

func TestMPCAvoidsRebufferOnSlowLink(t *testing.T) {
	v := testVideo(0)
	tr := trace.Constant("slow", 1000, 0.9, 40, 0)
	s := RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewMPC())
	var rebuf float64
	for _, r := range s.Results()[3:] { // allow warm-up stalls
		rebuf += r.RebufferS
	}
	if rebuf > 1.0 {
		t.Fatalf("MPC rebuffered %vs on a steady 0.9 Mbps link", rebuf)
	}
}

func TestMPCBeatsBBOnVariableTrace(t *testing.T) {
	v := testVideo(0)
	rng := mathx.NewRNG(33)
	cfg := trace.RandomConfig{Points: 60, Duration: 4, BandwidthLo: 0.8, BandwidthHi: 4.8, LatencyLo: 40}
	var mpcQ, bbQ float64
	for i := 0; i < 10; i++ {
		tr := trace.GenerateRandom(rng, cfg, "r")
		mpcQ += RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewMPC()).MeanQoE()
		bbQ += RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewBB()).MeanQoE()
	}
	if mpcQ <= bbQ {
		t.Fatalf("MPC (%v) should beat BB (%v) on random traces", mpcQ/10, bbQ/10)
	}
}

func TestWindowOptimalUpperBoundsProtocols(t *testing.T) {
	v := testVideo(0)
	bw := []float64{2, 1, 3, 2}
	opt := WindowOptimal(v, DefaultQoE(), 0, bw, 0.08, 0, 60, -1)

	// Simulate every protocol over the same 4 chunks and compare.
	for _, p := range []Protocol{NewBB(), NewMPC(), NewRateBased()} {
		link := &ConstantLink{RTTSeconds: 0.08}
		s := NewSession(v, link, DefaultSessionConfig())
		p.Reset()
		for i := 0; i < 4; i++ {
			link.BandwidthMbps = bw[i]
			s.Step(p.SelectLevel(s.Observation()))
		}
		if s.TotalQoE() > opt+1e-9 {
			t.Fatalf("%s QoE %v exceeds window optimum %v", p.Name(), s.TotalQoE(), opt)
		}
	}
}

func TestWindowOptimalMonotoneInBandwidth(t *testing.T) {
	v := testVideo(0)
	q := DefaultQoE()
	low := WindowOptimal(v, q, 0, []float64{1, 1, 1, 1}, 0.08, 0, 60, -1)
	high := WindowOptimal(v, q, 0, []float64{4, 4, 4, 4}, 0.08, 0, 60, -1)
	if high < low {
		t.Fatalf("optimum decreased with bandwidth: %v < %v", high, low)
	}
}

func TestWindowOptimalTruncatesAtVideoEnd(t *testing.T) {
	v := testVideo(0)
	got := WindowOptimal(v, DefaultQoE(), v.NumChunks()-2, []float64{2, 2, 2, 2}, 0.08, 30, 60, 2)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("window optimum at video end = %v", got)
	}
	if WindowOptimal(v, DefaultQoE(), v.NumChunks(), []float64{2}, 0.08, 0, 60, -1) != 0 {
		t.Fatal("window past end should be 0")
	}
}

func TestOfflineOptimalUpperBoundsProtocols(t *testing.T) {
	v := testVideo(0)
	rng := mathx.NewRNG(5)
	bw := make([]float64, v.NumChunks())
	for i := range bw {
		bw[i] = rng.Uniform(0.8, 4.8)
	}
	oracle := NewOfflineOptimal()
	oracle.RTTSeconds = 0.08
	levels, optQoE := oracle.Solve(v, bw)
	if len(levels) != v.NumChunks() {
		t.Fatal("level sequence length")
	}

	for _, p := range []Protocol{NewBB(), NewMPC(), NewRateBased()} {
		link := &ConstantLink{RTTSeconds: 0.08}
		s := NewSession(v, link, DefaultSessionConfig())
		p.Reset()
		for i := 0; !s.Done(); i++ {
			link.BandwidthMbps = bw[i]
			s.Step(p.SelectLevel(s.Observation()))
		}
		// Allow a small slack for the DP's buffer discretization.
		if s.TotalQoE() > optQoE+0.5 {
			t.Fatalf("%s QoE %v exceeds offline optimum %v", p.Name(), s.TotalQoE(), optQoE)
		}
	}
}

func TestOfflineOptimalReplayMatchesReportedQoE(t *testing.T) {
	v := testVideo(0)
	bw := make([]float64, v.NumChunks())
	rng := mathx.NewRNG(9)
	for i := range bw {
		bw[i] = rng.Uniform(1, 4)
	}
	oracle := NewOfflineOptimal()
	oracle.RTTSeconds = 0.08
	levels, optQoE := oracle.Solve(v, bw)

	// Replaying the chosen levels must reproduce the claimed QoE.
	link := &ConstantLink{RTTSeconds: 0.08}
	s := NewSession(v, link, DefaultSessionConfig())
	for i, l := range levels {
		link.BandwidthMbps = bw[i]
		s.Step(l)
	}
	if math.Abs(s.TotalQoE()-optQoE) > 1e-6 {
		t.Fatalf("replayed QoE %v != reported %v", s.TotalQoE(), optQoE)
	}
}

func TestFeaturesShapeAndBounds(t *testing.T) {
	v := testVideo(0.1)
	tr := trace.Constant("c", 1000, 2, 40, 0)
	s := NewSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig())
	for !s.Done() {
		f := Features(s.Observation())
		if len(f) != FeatureSize(v.Levels()) {
			t.Fatalf("feature size %d, want %d", len(f), FeatureSize(v.Levels()))
		}
		for i, x := range f {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %d is %v", i, x)
			}
		}
		s.Step(2)
	}
}

func TestPensieveTrainingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := mathx.NewRNG(17)
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 20, "fcc")

	agent, _, err := TrainPensieve(v, ds, 0, rng) // untrained
	if err != nil {
		t.Fatal(err)
	}
	evalQoE := func(p Protocol) float64 {
		var sum float64
		for _, tr := range ds.Traces[:10] {
			sum += RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), p).MeanQoE()
		}
		return sum / 10
	}
	before := evalQoE(agent)

	trained, _, err := TrainPensieve(v, ds, 25, mathx.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	after := evalQoE(trained)
	if after <= before {
		t.Fatalf("training did not improve QoE: %v -> %v", before, after)
	}
}

func TestTrainEnvEpisodeShape(t *testing.T) {
	rng := mathx.NewRNG(19)
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 3, "fcc")
	env := NewTrainEnv(v, ds, DefaultSessionConfig(), 0.08, rng)
	obs := env.Reset()
	if len(obs) != env.ObservationSize() {
		t.Fatal("obs size")
	}
	steps := 0
	for {
		var done bool
		obs, _, done = env.Step([]float64{0})
		steps++
		if done {
			break
		}
	}
	if steps != v.NumChunks() {
		t.Fatalf("episode length %d, want %d", steps, v.NumChunks())
	}
	if len(obs) != env.ObservationSize() {
		t.Fatal("terminal obs size")
	}
	spec := env.ActionSpec()
	if !spec.Discrete || spec.N != v.Levels() {
		t.Fatal("action spec")
	}
}

// TestTrainEnvStepAllocs: TrainEnv observes through ObservationInto and
// FeaturesInto into buffers it owns, and the session reserved its records at
// its first chunk, so a step allocates nothing.
func TestTrainEnvStepAllocs(t *testing.T) {
	rng := mathx.NewRNG(23)
	v := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 3, "fcc")
	env := NewTrainEnv(v, ds, DefaultSessionConfig(), 0.08, rng)
	act := []float64{2}
	env.Reset()
	if n := testing.AllocsPerRun(v.NumChunks()-8, func() { env.Step(act) }); n != 0 {
		t.Errorf("TrainEnv.Step: %v allocs, want 0", n)
	}
}

func TestRunSessionCompletes(t *testing.T) {
	v := testVideo(0.1)
	tr := trace.Constant("c", 1000, 3, 40, 0)
	for _, p := range []Protocol{NewBB(), NewMPC(), NewRateBased()} {
		s := RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), p)
		if !s.Done() || len(s.Results()) != v.NumChunks() {
			t.Fatalf("%s did not finish the video", p.Name())
		}
	}
}

func TestBOLAPicksLowestWhenEmpty(t *testing.T) {
	b := NewBOLA()
	v := testVideo(0)
	obs := &Observation{
		Levels:        6,
		BitratesKbps:  DefaultBitratesKbps,
		ChunkSeconds:  4,
		NextSizesBits: v.ChunkSizes(0),
		BufferS:       0,
	}
	if got := b.SelectLevel(obs); got != 0 {
		t.Fatalf("empty buffer chose level %d", got)
	}
}

func TestBOLAMonotoneInBuffer(t *testing.T) {
	b := NewBOLA()
	v := testVideo(0)
	obs := &Observation{
		Levels:        6,
		BitratesKbps:  DefaultBitratesKbps,
		ChunkSeconds:  4,
		NextSizesBits: v.ChunkSizes(0),
	}
	last := -1
	for buf := 0.0; buf <= 40; buf += 0.5 {
		obs.BufferS = buf
		l := b.SelectLevel(obs)
		if l < last {
			t.Fatalf("BOLA not monotone: buffer %v chose %d after %d", buf, l, last)
		}
		last = l
	}
	obs.BufferS = 40
	if b.SelectLevel(obs) != 5 {
		t.Fatal("full buffer should choose the top level")
	}
}

func TestBOLACompletesVideo(t *testing.T) {
	v := testVideo(0.1)
	tr := trace.Constant("c", 1000, 2.5, 40, 0)
	s := RunSession(v, &TraceLink{Trace: tr, RTTSeconds: 0.08}, DefaultSessionConfig(), NewBOLA())
	if !s.Done() {
		t.Fatal("BOLA did not finish")
	}
	if s.MeanQoE() < 0.2 {
		t.Fatalf("BOLA mean QoE %v on a steady 2.5 Mbps link", s.MeanQoE())
	}
}

func TestBOLARespectsWindowOptimalBound(t *testing.T) {
	v := testVideo(0)
	bw := []float64{2, 1, 3, 2}
	opt := WindowOptimal(v, DefaultQoE(), 0, bw, 0.08, 0, 60, -1)
	link := &ConstantLink{RTTSeconds: 0.08}
	s := NewSession(v, link, DefaultSessionConfig())
	b := NewBOLA()
	for i := 0; i < 4; i++ {
		link.BandwidthMbps = bw[i]
		s.Step(b.SelectLevel(s.Observation()))
	}
	if s.TotalQoE() > opt+1e-9 {
		t.Fatalf("BOLA QoE %v exceeds window optimum %v", s.TotalQoE(), opt)
	}
}

func TestMPCHorizonAtVideoEnd(t *testing.T) {
	// With two chunks left the search horizon must clip to 2 and still
	// pick sensible levels.
	v := testVideo(0)
	link := &ConstantLink{BandwidthMbps: 3, RTTSeconds: 0.08}
	s := NewSession(v, link, DefaultSessionConfig())
	m := NewMPC()
	m.Reset()
	for !s.Done() {
		l := m.SelectLevel(s.Observation())
		if l < 0 || l >= v.Levels() {
			t.Fatalf("level %d out of range near video end", l)
		}
		s.Step(l)
	}
	if s.MeanQoE() < 0.5 {
		t.Fatalf("MPC QoE %v on a steady 3 Mbps link", s.MeanQoE())
	}
}

func TestObservationHistoriesAligned(t *testing.T) {
	v := testVideo(0)
	link := &ConstantLink{BandwidthMbps: 2, RTTSeconds: 0.08}
	s := NewSession(v, link, DefaultSessionConfig())
	for i := 0; i < 10; i++ {
		o := s.Observation()
		if len(o.ThroughputHist) != i || len(o.DownloadHist) != i {
			t.Fatalf("history lengths %d/%d at chunk %d",
				len(o.ThroughputHist), len(o.DownloadHist), i)
		}
		s.Step(1)
	}
}

// TestNewByName: every name in the table round-trips through New(name).Name(),
// and an unknown name is an error.
func TestNewByName(t *testing.T) {
	for _, name := range strings.Split(Names(), "|") {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("pensieve"); err == nil {
		t.Fatal("New accepted pensieve, which needs a trained policy")
	}
}
