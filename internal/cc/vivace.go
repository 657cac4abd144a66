package cc

import (
	"math"

	"advnet/internal/netem"
)

// Vivace implements a PCC-Vivace-style online-learning rate controller
// (Dong et al., NSDI '18) [6], the second of the modern protocols the paper
// names. The sender runs paired monitor intervals (MIs) at rate·(1+ε) and
// rate·(1−ε), scores each with Vivace's utility function
//
//	u(r) = r^0.9 − b·r·max(dRTT/dt, 0) − c·r·loss
//
// and moves the base rate toward the better-scoring direction with
// confidence-amplified steps — the original's gradient-based no-regret
// online learning, without any hardwired loss/delay thresholds.
type Vivace struct {
	// Utility coefficients (Vivace defaults; rate in Mbps).
	Exponent  float64 // 0.9
	LatFactor float64 // b = 900
	LossCoeff float64 // c = 11.35
	// GradDeadzone suppresses RTT-gradient noise below this slope (s/s);
	// genuine queue build-up produces far larger gradients.
	GradDeadzone float64

	rate    float64 // base rate, bits/s
	epsilon float64 // probe amplitude

	srtt float64

	// monitor-interval bookkeeping
	miStart    float64
	miFirstAck float64
	miLastAck  float64
	miAcks     int
	miLosses   int
	miRTTFirst float64
	miRTTLast  float64
	phase      int // 0: probing up, 1: probing down
	utilUp     float64

	prevDir    int
	confidence float64
}

// NewVivace returns a Vivace-style controller starting at 1 Mbps.
func NewVivace() *Vivace {
	return &Vivace{
		Exponent:     0.9,
		LatFactor:    900,
		LossCoeff:    11.35,
		GradDeadzone: 0.05,
		rate:         1e6,
		epsilon:      0.1,
		confidence:   1,
	}
}

// Name returns the protocol name.
func (v *Vivace) Name() string { return "vivace" }

// PacingRate implements netem.CongestionController: the base rate modulated
// by the current probe phase.
func (v *Vivace) PacingRate(_ float64) float64 {
	if v.phase == 0 {
		return v.rate * (1 + v.epsilon)
	}
	return v.rate * (1 - v.epsilon)
}

// CWND implements netem.CongestionController: PCC is rate-based; the window
// only guards against unbounded inflight (2× rate·RTT).
func (v *Vivace) CWND(_ float64) float64 {
	rtt := v.srtt
	if rtt <= 0 {
		rtt = 0.1
	}
	return math.Max(4, 2*v.rate*rtt/netem.PacketBits)
}

// OnPacketSent implements netem.CongestionController.
func (v *Vivace) OnPacketSent(_ float64, _ int64) {}

// OnAck implements netem.CongestionController.
func (v *Vivace) OnAck(a netem.Ack) {
	if v.srtt == 0 {
		v.srtt = a.RTT
		v.miStart = a.Now
	} else {
		v.srtt = 0.875*v.srtt + 0.125*a.RTT
	}
	// Acks arriving within one RTT of the MI start acknowledge packets
	// paced during the *previous* probe phase; counting them would blend
	// the two phases and cancel the probe signal, so they are skipped.
	if a.Now < v.miStart+v.srtt {
		return
	}
	v.miAcks++
	if v.miRTTFirst == 0 {
		v.miRTTFirst = a.RTT
		v.miFirstAck = a.Now
	}
	v.miRTTLast = a.RTT
	v.miLastAck = a.Now
	// An MI spans at least three smoothed RTTs (one skipped + two
	// measured) AND enough packets that the ±ε probe signal is not
	// drowned by packet-count quantization noise.
	if a.Now-v.miStart >= math.Max(3*v.srtt, 0.06) && v.miAcks >= 30 {
		v.endMonitorInterval(a.Now)
	}
}

func (v *Vivace) endMonitorInterval(now float64) {
	dur := now - v.miStart
	util := v.utility(dur)
	if v.phase == 0 {
		v.utilUp = util
		v.phase = 1
	} else {
		v.decide(v.utilUp, util)
		v.phase = 0
	}
	v.resetMI(now)
}

// utility scores the just-finished MI. Throughput is measured over the
// first-to-last-ack span, which is insensitive to partial-interval edges.
func (v *Vivace) utility(dur float64) float64 {
	span := v.miLastAck - v.miFirstAck
	if span <= 0 {
		span = dur
	}
	throughput := float64(v.miAcks-1) * netem.PacketBits / span
	lossRate := 0.0
	if total := v.miAcks + v.miLosses; total > 0 {
		lossRate = float64(v.miLosses) / float64(total)
	}
	grad := (v.miRTTLast - v.miRTTFirst) / dur
	if grad < v.GradDeadzone {
		grad = 0
	}
	rMbps := throughput / 1e6
	// A fractional math.Pow calls math.Exp, whose bits depend on the host's
	// FMA support (mathx.Exp does not); no golden covers Vivace's utility.
	return math.Pow(math.Max(rMbps, 1e-6), v.Exponent) -
		v.LatFactor*rMbps*grad -
		v.LossCoeff*rMbps*lossRate
}

// decide compares the paired MIs and steps the base rate.
func (v *Vivace) decide(utilUp, utilDown float64) {
	dir := 1
	if utilDown > utilUp {
		dir = -1
	}
	if dir == v.prevDir {
		v.confidence = math.Min(v.confidence*2, 16)
	} else {
		v.confidence = 1
	}
	v.prevDir = dir
	step := 0.05 * v.confidence * v.rate
	v.rate += float64(dir) * step
	v.rate = math.Max(v.rate, 0.1e6)
	v.rate = math.Min(v.rate, 1e9)
}

func (v *Vivace) resetMI(now float64) {
	v.miStart = now
	v.miAcks = 0
	v.miLosses = 0
	v.miRTTFirst = 0
	v.miRTTLast = 0
}

// OnLoss implements netem.CongestionController.
func (v *Vivace) OnLoss(_ float64, _ int64) { v.miLosses++ }

// OnTimeout implements netem.CongestionController.
func (v *Vivace) OnTimeout(_ float64) {
	v.rate = math.Max(0.1e6, v.rate/2)
	v.confidence = 1
}
