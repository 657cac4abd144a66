package cc

import (
	"math"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

func steadyTrace(dur, bw, owdMs, loss float64) *trace.Trace {
	return trace.Constant("steady", dur, bw, owdMs, loss)
}

func runFor(cc netem.CongestionController, tr *trace.Trace, seed uint64) []Sample {
	return RunTrace(cc, tr, netem.Config{QueuePackets: 128}, mathx.NewRNG(seed), 0.03)
}

func utilAfter(samples []Sample, warmupS float64) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Time >= warmupS {
			sum += s.Utilization
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestBBRHighUtilizationOnSteadyLink(t *testing.T) {
	samples := runFor(NewBBR(), steadyTrace(30, 12, 20, 0), 1)
	u := utilAfter(samples, 5)
	if u < 0.8 {
		t.Fatalf("BBR steady-link utilization %v, want >= 0.8", u)
	}
}

func TestBBREstimatesConverge(t *testing.T) {
	b := NewBBR()
	runFor(b, steadyTrace(20, 12, 20, 0), 2)
	if bw := b.btlBw.Value() / 1e6; math.Abs(bw-12) > 2.5 {
		t.Fatalf("btlBw estimate %v Mbps, want ~12", bw)
	}
	// minRTT should be close to 2*OWD = 40 ms (plus ~1 ms serialization).
	if rtt := b.minRTT.Value(); rtt < 0.039 || rtt > 0.06 {
		t.Fatalf("minRTT estimate %v, want ~0.04", rtt)
	}
}

func TestBBRStateProgression(t *testing.T) {
	b := NewBBR()
	samples := runFor(b, steadyTrace(25, 12, 20, 0), 3)
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.State] = true
	}
	for _, want := range []string{"startup", "probe_bw", "probe_rtt"} {
		if !seen[want] {
			t.Errorf("BBR never entered %s (saw %v)", want, keys(seen))
		}
	}
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return strings.Join(ks, ",")
}

func TestBBRProbeRTTCadence(t *testing.T) {
	b := NewBBR()
	samples := runFor(b, steadyTrace(45, 12, 20, 0), 4)
	// Collect the start times of probe_rtt episodes.
	var starts []float64
	inProbe := false
	for _, s := range samples {
		if s.State == "probe_rtt" && !inProbe {
			starts = append(starts, s.Time)
			inProbe = true
		} else if s.State != "probe_rtt" {
			inProbe = false
		}
	}
	if len(starts) < 3 {
		t.Fatalf("only %d ProbeRTT episodes in 45s, want >= 3 (every ~10s)", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		gap := starts[i] - starts[i-1]
		if gap < 8 || gap > 14 {
			t.Fatalf("ProbeRTT gap %v s, want ~10", gap)
		}
	}
}

func TestBBRTolerates2PercentLoss(t *testing.T) {
	samples := runFor(NewBBR(), steadyTrace(30, 12, 20, 0.02), 5)
	u := utilAfter(samples, 5)
	if u < 0.7 {
		t.Fatalf("BBR utilization %v under 2%% loss, want >= 0.7", u)
	}
}

func TestCubicCollapsesUnder2PercentLoss(t *testing.T) {
	// The paper: "TCP congestion control variants like Cubic, Reno and
	// HTCP all share a trivial weakness to packet loss even as low as 1%."
	clean := utilAfter(runFor(NewCubic(), steadyTrace(30, 12, 20, 0), 6), 5)
	lossy := utilAfter(runFor(NewCubic(), steadyTrace(30, 12, 20, 0.02), 6), 5)
	if clean < 0.6 {
		t.Fatalf("Cubic clean-link utilization %v, want >= 0.6", clean)
	}
	if lossy > clean*0.7 {
		t.Fatalf("Cubic under 2%% loss (%v) should collapse vs clean (%v)", lossy, clean)
	}
}

func TestRenoCollapsesUnderLossButBBRDoesNot(t *testing.T) {
	renoLossy := utilAfter(runFor(NewReno(), steadyTrace(30, 12, 20, 0.02), 7), 5)
	bbrLossy := utilAfter(runFor(NewBBR(), steadyTrace(30, 12, 20, 0.02), 7), 5)
	if bbrLossy <= renoLossy {
		t.Fatalf("BBR (%v) should beat Reno (%v) under random loss", bbrLossy, renoLossy)
	}
}

func TestRenoReachesDecentUtilizationClean(t *testing.T) {
	u := utilAfter(runFor(NewReno(), steadyTrace(30, 8, 20, 0), 8), 10)
	if u < 0.5 {
		t.Fatalf("Reno clean utilization %v, want >= 0.5", u)
	}
}

func TestBBRAdaptsToBandwidthIncrease(t *testing.T) {
	tr := trace.StepPattern("step", 20, [2]float64{15, 6}, [2]float64{15, 18})
	b := NewBBR()
	samples := runFor(b, tr, 9)
	// After the step up at t=15, BBR's probing should discover the new
	// bandwidth within a few seconds.
	late := 0.0
	n := 0
	for _, s := range samples {
		if s.Time >= 25 {
			late += s.ThroughputMbps
			n++
		}
	}
	late /= float64(n)
	if late < 10 {
		t.Fatalf("BBR throughput %v Mbps after step to 18, want >= 10", late)
	}
}

func TestBBRAdaptsToBandwidthDecrease(t *testing.T) {
	tr := trace.StepPattern("step", 20, [2]float64{15, 18}, [2]float64{15, 6})
	samples := runFor(NewBBR(), tr, 10)
	// After the step down the old max-filter entries expire and delivery
	// matches the new capacity without a persistent standing queue blowup.
	var lateQ float64
	n := 0
	for _, s := range samples {
		if s.Time >= 25 {
			lateQ += s.QueueDelayS
			n++
		}
	}
	lateQ /= float64(n)
	if lateQ > 0.5 {
		t.Fatalf("persistent queueing delay %v s after step down", lateQ)
	}
}

func TestCubicWindowGrowsBetweenLosses(t *testing.T) {
	c := NewCubic()
	c.srtt = 0.04
	c.ssthresh = 10
	c.cwnd = 10
	now := 0.0
	for i := 0; i < 500; i++ {
		now += 0.01
		c.OnAck(netem.Ack{Seq: int64(i), Now: now, RTT: 0.04})
	}
	if c.cwnd <= 10 {
		t.Fatalf("Cubic cwnd %v did not grow", c.cwnd)
	}
	before := c.cwnd
	c.OnLoss(now, 1)
	if c.cwnd >= before {
		t.Fatal("Cubic did not back off on loss")
	}
	if math.Abs(c.cwnd-before*cubicBeta) > 1e-9 {
		t.Fatalf("Cubic backoff %v, want beta=%v", c.cwnd/before, cubicBeta)
	}
}

func TestRenoAIMD(t *testing.T) {
	r := NewReno()
	r.srtt = 0.04
	r.ssthresh = 8
	r.cwnd = 8
	for i := 0; i < 8; i++ {
		r.OnAck(netem.Ack{Seq: int64(i), Now: float64(i) * 0.01, RTT: 0.04})
	}
	// Congestion avoidance: 8 acks at cwnd 8 adds ~1.
	if r.cwnd < 8.9 || r.cwnd > 9.1 {
		t.Fatalf("Reno CA growth: cwnd %v, want ~9", r.cwnd)
	}
	r.OnLoss(1, 0)
	if math.Abs(r.cwnd-4.5) > 0.1 {
		t.Fatalf("Reno halving: cwnd %v, want ~4.5", r.cwnd)
	}
	// A second loss within the same RTT must not cut again.
	r.OnLoss(1.001, 1)
	if math.Abs(r.cwnd-4.5) > 0.1 {
		t.Fatalf("Reno cut twice in one RTT: %v", r.cwnd)
	}
}

func TestLossBasedTimeoutResetsWindow(t *testing.T) {
	r := NewReno()
	r.cwnd = 40
	r.OnTimeout(5)
	if r.cwnd != 2 {
		t.Fatalf("Reno timeout cwnd %v, want 2", r.cwnd)
	}
	c := NewCubic()
	c.cwnd = 40
	c.OnTimeout(5)
	if c.cwnd != 2 {
		t.Fatalf("Cubic timeout cwnd %v, want 2", c.cwnd)
	}
}

func TestRunTraceSampleSeries(t *testing.T) {
	tr := steadyTrace(3, 10, 20, 0)
	samples := runFor(NewBBR(), tr, 11)
	if len(samples) != 100 {
		t.Fatalf("%d samples for 3s at 30ms, want 100", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		dt := samples[i].Time - samples[i-1].Time
		if math.Abs(dt-0.03) > 1e-9 {
			t.Fatalf("sample spacing %v", dt)
		}
	}
	for _, s := range samples {
		if s.Utilization < 0 || s.Utilization > 1 {
			t.Fatalf("utilization %v", s.Utilization)
		}
		if s.ThroughputMbps < 0 || s.BandwidthMbps != 10 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	tr := steadyTrace(10, 10, 20, 0.01)
	a := runFor(NewBBR(), tr, 42)
	b := runFor(NewBBR(), tr, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMeanHelpers(t *testing.T) {
	s := []Sample{{Utilization: 0.5, ThroughputMbps: 5}, {Utilization: 1, ThroughputMbps: 10}}
	if MeanUtilization(s) != 0.75 {
		t.Error("MeanUtilization")
	}
	if MeanThroughput(s) != 7.5 {
		t.Error("MeanThroughput")
	}
	if MeanUtilization(nil) != 0 || MeanThroughput(nil) != 0 {
		t.Error("empty means")
	}
}

func TestProtocolNames(t *testing.T) {
	if NewBBR().Name() != "bbr" || NewCubic().Name() != "cubic" || NewReno().Name() != "reno" {
		t.Fatal("protocol names wrong")
	}
}

// TestNewByName: every name in the table round-trips through New(name).Name(),
// and an unknown name is an error.
func TestNewByName(t *testing.T) {
	names := strings.Split(Names(), "|")
	if len(names) != 6 {
		t.Fatalf("Names() = %q, want the six shipped controllers", Names())
	}
	for _, name := range names {
		c, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.(interface{ Name() string }).Name(); got != name {
			t.Fatalf("New(%q).Name() = %q", name, got)
		}
	}
	if _, err := New("vegas"); err == nil {
		t.Fatal("New accepted an unknown controller")
	}
}
