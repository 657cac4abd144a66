package cc

import (
	"math"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

func TestCopaHighUtilizationOnSteadyLink(t *testing.T) {
	samples := runFor(NewCopa(), steadyTrace(30, 12, 20, 0), 21)
	if u := utilAfter(samples, 8); u < 0.6 {
		t.Fatalf("Copa steady-link utilization %v, want >= 0.6", u)
	}
}

func TestCopaKeepsQueueShort(t *testing.T) {
	// Copa is delay-based: on a steady link its standing queue should stay
	// near its δ target (a few packets), far below the droptail capacity.
	samples := runFor(NewCopa(), steadyTrace(30, 12, 20, 0), 22)
	var q float64
	n := 0
	for _, s := range samples {
		if s.Time >= 10 {
			q += s.QueueDelayS
			n++
		}
	}
	q /= float64(n)
	// 128-packet queue at 12 Mbps would be 0.128 s if kept full.
	if q > 0.05 {
		t.Fatalf("Copa mean queueing delay %v s — not delay-controlled", q)
	}
}

func TestCopaToleratesRandomLoss(t *testing.T) {
	lossy := utilAfter(runFor(NewCopa(), steadyTrace(30, 12, 20, 0.02), 23), 8)
	renoLossy := utilAfter(runFor(NewReno(), steadyTrace(30, 12, 20, 0.02), 23), 8)
	if lossy < renoLossy {
		t.Fatalf("Copa (%v) should beat Reno (%v) under random loss", lossy, renoLossy)
	}
	if lossy < 0.5 {
		t.Fatalf("Copa collapses under 2%% loss: %v", lossy)
	}
}

func TestVivaceReachesDecentUtilization(t *testing.T) {
	samples := runFor(NewVivace(), steadyTrace(60, 12, 20, 0), 24)
	if u := utilAfter(samples, 30); u < 0.5 {
		t.Fatalf("Vivace utilization %v, want >= 0.5", u)
	}
}

func TestVivaceRateConvergesUpward(t *testing.T) {
	v := NewVivace()
	runFor(v, steadyTrace(40, 12, 20, 0), 25)
	if v.rate/1e6 < 4 {
		t.Fatalf("Vivace rate %v Mbps after 40 s on a 12 Mbps link", v.rate/1e6)
	}
}

func TestVivaceBacksOffUnderHeavyLoss(t *testing.T) {
	// Vivace's utility charges 11.35·r·loss: heavy random loss should keep
	// the rate well below what it reaches on a clean link.
	clean := NewVivace()
	runFor(clean, steadyTrace(40, 12, 20, 0), 26)
	lossy := NewVivace()
	runFor(lossy, steadyTrace(40, 12, 20, 0.15), 26)
	if lossy.rate/1e6 > clean.rate/1e6*0.8 {
		t.Fatalf("Vivace ignores loss: %v vs %v Mbps", lossy.rate/1e6, clean.rate/1e6)
	}
}

func TestHTCPGrowsFasterThanRenoAfterQuietPeriod(t *testing.T) {
	h := NewHTCP()
	r := NewReno()
	h.srtt, r.srtt = 0.04, 0.04
	h.ssthresh, r.ssthresh = 10, 10
	h.cwnd, r.cwnd = 10, 10
	// 3 seconds since last congestion: H-TCP's alpha should far exceed 1.
	now := 3.0
	for i := 0; i < 100; i++ {
		now += 0.01
		h.OnAck(netem.Ack{Seq: int64(i), Now: now, RTT: 0.04})
		r.OnAck(netem.Ack{Seq: int64(i), Now: now, RTT: 0.04})
	}
	if h.cwnd <= r.cwnd {
		t.Fatalf("HTCP cwnd %v should exceed Reno %v long after congestion", h.cwnd, r.cwnd)
	}
}

func TestHTCPAlphaShape(t *testing.T) {
	h := NewHTCP()
	h.lastCongestion = 0
	if got := h.alpha(0.5); got != 1 {
		t.Fatalf("alpha below Delta_L = %v, want 1", got)
	}
	a2 := h.alpha(2)
	a3 := h.alpha(3)
	if a2 <= 1 || a3 <= a2 {
		t.Fatalf("alpha not growing: %v, %v", a2, a3)
	}
	// alpha(2) = 1 + 10*1 + 0.25 = 11.25
	if math.Abs(a2-11.25) > 1e-9 {
		t.Fatalf("alpha(2) = %v, want 11.25", a2)
	}
}

func TestHTCPCollapsesUnderRandomLoss(t *testing.T) {
	clean := utilAfter(runFor(NewHTCP(), steadyTrace(30, 12, 20, 0), 27), 10)
	lossy := utilAfter(runFor(NewHTCP(), steadyTrace(30, 12, 20, 0.02), 27), 10)
	if lossy > clean*0.8 {
		t.Fatalf("HTCP under 2%% loss (%v) should collapse vs clean (%v)", lossy, clean)
	}
}

func TestModernProtocolNames(t *testing.T) {
	if NewCopa().Name() != "copa" || NewVivace().Name() != "vivace" || NewHTCP().Name() != "htcp" {
		t.Fatal("names wrong")
	}
}

func TestAllProtocolsCompleteAVariableTrace(t *testing.T) {
	tr := trace.StepPattern("var", 20,
		[2]float64{5, 18}, [2]float64{5, 6}, [2]float64{5, 12}, [2]float64{5, 24})
	for _, p := range []netem.CongestionController{
		NewBBR(), NewCubic(), NewReno(), NewCopa(), NewVivace(), NewHTCP(),
	} {
		samples := runFor(p, tr, 28)
		if len(samples) == 0 {
			t.Fatalf("%T produced no samples", p)
		}
		var tput float64
		for _, s := range samples[len(samples)/2:] {
			tput += s.ThroughputMbps
		}
		tput /= float64(len(samples) - len(samples)/2)
		if tput < 0.5 {
			t.Fatalf("%T mean throughput %v Mbps on a variable trace", p, tput)
		}
	}
}

func TestTwoCubicFlowsShareFairly(t *testing.T) {
	a, b := NewCubic(), NewCubic()
	m := netem.NewMulti([]netem.CongestionController{a, b},
		netem.Config{Initial: netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 20}, QueuePackets: 64},
		mathx.NewRNG(61))
	m.Run(60)
	if j := stats.Jain([]float64{m.FlowDeliveredBits(0), m.FlowDeliveredBits(1)}); j < 0.75 {
		t.Fatalf("two Cubic flows Jain index %v, want >= 0.75", j)
	}
	total := (m.FlowDeliveredBits(0) + m.FlowDeliveredBits(1)) / 60 / 1e6
	if total < 9 {
		t.Fatalf("aggregate %v Mbps on a 12 Mbps link", total)
	}
}

func TestBBRvsCubicShallowQueue(t *testing.T) {
	// The documented BBR v1 coexistence behaviour: with a shallow buffer,
	// BBR's rate-based operation squeezes loss-based flows, taking well
	// over its fair share.
	bbr, cubic := NewBBR(), NewCubic()
	m := netem.NewMulti([]netem.CongestionController{bbr, cubic},
		netem.Config{Initial: netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 20}, QueuePackets: 32},
		mathx.NewRNG(62))
	m.Run(60)
	bbrMbps := m.FlowDeliveredBits(0) / 60 / 1e6
	cubicMbps := m.FlowDeliveredBits(1) / 60 / 1e6
	if bbrMbps < cubicMbps {
		t.Fatalf("BBR (%v) below Cubic (%v) on a shallow queue", bbrMbps, cubicMbps)
	}
	if cubicMbps <= 0.1 {
		t.Fatalf("Cubic fully starved (%v Mbps)", cubicMbps)
	}
	if total := bbrMbps + cubicMbps; total < 9 {
		t.Fatalf("aggregate %v Mbps on a 12 Mbps link", total)
	}
}
