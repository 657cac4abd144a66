package trace

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
)

func mkTrace() *Trace {
	return &Trace{Name: "t", Points: []Point{
		{Duration: 2, BandwidthMbps: 1, LatencyMs: 10},
		{Duration: 3, BandwidthMbps: 2, LatencyMs: 20},
	}}
}

func TestValidate(t *testing.T) {
	if err := mkTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{},
		{Points: []Point{{Duration: 0, BandwidthMbps: 1}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: -1}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: 1, LossRate: 1.5}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: 1, LatencyMs: -2}}},
		{Points: []Point{{Duration: math.NaN(), BandwidthMbps: 1}}},
		{Points: []Point{{Duration: math.Inf(1), BandwidthMbps: 1}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: math.Inf(1)}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: 1, LatencyMs: math.Inf(1)}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: 0}, {Duration: 2, BandwidthMbps: 0}}},
		{Points: []Point{{Duration: 1e308, BandwidthMbps: 1}, {Duration: 1e308, BandwidthMbps: 0}}},
		{Points: []Point{{Duration: 1, BandwidthMbps: 1e-9}}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestTotalDurationAndAt(t *testing.T) {
	tr := mkTrace()
	if tr.TotalDuration() != 5 {
		t.Fatalf("TotalDuration = %v", tr.TotalDuration())
	}
	if tr.At(0).BandwidthMbps != 1 {
		t.Error("At(0)")
	}
	if tr.At(1.99).BandwidthMbps != 1 {
		t.Error("At(1.99)")
	}
	if tr.At(2).BandwidthMbps != 2 {
		t.Error("At(2)")
	}
	// Wraparound: t=5 is the same as t=0, t=7 same as t=2.
	if tr.At(5).BandwidthMbps != 1 {
		t.Error("At(5) should wrap")
	}
	if tr.At(7).BandwidthMbps != 2 {
		t.Error("At(7) should wrap")
	}
}

func TestAtWrapProperty(t *testing.T) {
	tr := mkTrace()
	f := func(x float64) bool {
		x = mathx.Clamp(math.Abs(x), 0, 1e6)
		a := tr.At(x)
		b := tr.At(x + tr.TotalDuration())
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothness(t *testing.T) {
	flat := Constant("flat", 10, 3, 10, 0)
	if flat.Smoothness() != 0 {
		t.Error("constant trace should have 0 smoothness")
	}
	tr := &Trace{Points: []Point{
		{Duration: 1, BandwidthMbps: 1},
		{Duration: 1, BandwidthMbps: 3},
		{Duration: 1, BandwidthMbps: 2},
	}}
	if got := tr.Smoothness(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Smoothness = %v, want 1.5", got)
	}
}

func TestDatasetMerge(t *testing.T) {
	a := &Dataset{Name: "a", Traces: []*Trace{mkTrace(), mkTrace()}}
	b := &Dataset{Name: "b", Traces: []*Trace{mkTrace()}}
	m := a.Merge(b)
	if m.Name != "a+b" || len(m.Traces) != 3 || m.Traces[0] != a.Traces[0] || m.Traces[2] != b.Traces[0] {
		t.Fatalf("merge = %q with %d traces", m.Name, len(m.Traces))
	}
}

func TestGenerateRandomWithinBounds(t *testing.T) {
	rng := mathx.NewRNG(1)
	cfg := RandomConfig{
		Points: 200, Duration: 4,
		BandwidthLo: 0.8, BandwidthHi: 4.8,
		LatencyLo: 15, LatencyHi: 60,
		LossLo: 0, LossHi: 0.1,
	}
	tr := GenerateRandom(rng, cfg, "r")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Points {
		if p.BandwidthMbps < 0.8 || p.BandwidthMbps >= 4.8 {
			t.Fatalf("bandwidth %v out of range", p.BandwidthMbps)
		}
		if p.LatencyMs < 15 || p.LatencyMs >= 60 {
			t.Fatalf("latency %v out of range", p.LatencyMs)
		}
		if p.LossRate < 0 || p.LossRate >= 0.1 {
			t.Fatalf("loss %v out of range", p.LossRate)
		}
	}
}

func TestGenerateRandomFixedLatency(t *testing.T) {
	rng := mathx.NewRNG(2)
	cfg := RandomConfig{Points: 5, Duration: 1, BandwidthLo: 1, BandwidthHi: 2, LatencyLo: 40}
	tr := GenerateRandom(rng, cfg, "r")
	for _, p := range tr.Points {
		if p.LatencyMs != 40 {
			t.Fatalf("latency %v, want fixed 40", p.LatencyMs)
		}
	}
}

func TestFCCLikeStatistics(t *testing.T) {
	rng := mathx.NewRNG(3)
	d := GenerateFCCLikeDataset(rng, DefaultFCCLike(), 50, "fcc")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var means, stds []float64
	for _, tr := range d.Traces {
		bws := tr.Bandwidths()
		means = append(means, mean(bws))
		stds = append(stds, stdDev(bws))
	}
	if m := mean(means); m < 1.5 || m > 5 {
		t.Fatalf("FCC-like mean bandwidth %v outside broadband range", m)
	}
	// Broadband is steady: per-trace std should be small relative to mean.
	if cv := mean(stds) / mean(means); cv > 0.35 {
		t.Fatalf("FCC-like coefficient of variation %v too high", cv)
	}
}

func TestThreeGLikeStatistics(t *testing.T) {
	rng := mathx.NewRNG(4)
	d := GenerateThreeGLikeDataset(rng, DefaultThreeGLike(), 50, "3g")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var all []float64
	outages := 0
	for _, tr := range d.Traces {
		for _, p := range tr.Points {
			all = append(all, p.BandwidthMbps)
			if p.BandwidthMbps < 0.3 {
				outages++
			}
		}
	}
	if minOf(all) > 0.35 {
		t.Fatal("3G-like traces never visit outage conditions")
	}
	if mathx.Max(all) < 3 {
		t.Fatal("3G-like traces never reach good conditions")
	}
	if outages == 0 {
		t.Fatal("no outage intervals generated across 50 traces")
	}
}

func TestThreeGMoreVolatileThanFCC(t *testing.T) {
	rng := mathx.NewRNG(5)
	fcc := GenerateFCCLikeDataset(rng, DefaultFCCLike(), 30, "fcc")
	g3 := GenerateThreeGLikeDataset(rng, DefaultThreeGLike(), 30, "3g")
	cv := func(d *Dataset) float64 {
		var cvs []float64
		for _, tr := range d.Traces {
			bws := tr.Bandwidths()
			cvs = append(cvs, stdDev(bws)/(mean(bws)+1e-9))
		}
		return mean(cvs)
	}
	if cv(g3) <= cv(fcc) {
		t.Fatalf("3G (cv=%v) should be more volatile than FCC (cv=%v)", cv(g3), cv(fcc))
	}
}

func TestStepPatternAndConstant(t *testing.T) {
	tr := StepPattern("s", 20, [2]float64{1, 5}, [2]float64{2, 10})
	if len(tr.Points) != 2 || tr.Points[1].BandwidthMbps != 10 || tr.Points[0].LatencyMs != 20 {
		t.Fatal("StepPattern wrong")
	}
	c := Constant("c", 30, 12, 25, 0.01)
	if c.TotalDuration() != 30 || c.At(29).LossRate != 0.01 {
		t.Fatal("Constant wrong")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(6)
	d := GenerateFCCLikeDataset(rng, DefaultFCCLike(), 3, "fcc")
	path := filepath.Join(t.TempDir(), "d.json")
	if err := d.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 3 || got.Name != "fcc" {
		t.Fatal("dataset metadata lost")
	}
	for i, tr := range got.Traces {
		want := d.Traces[i]
		if len(tr.Points) != len(want.Points) {
			t.Fatal("points lost")
		}
		for j := range tr.Points {
			if tr.Points[j] != want.Points[j] {
				t.Fatalf("point %d/%d changed", i, j)
			}
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stdDev(xs []float64) float64 {
	m, v := mean(xs), 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
