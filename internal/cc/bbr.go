// Package cc implements the congestion-control protocols of the paper's
// second case study (§4): BBR [3] — the target whose probing schedule the
// adversary exploits — plus TCP Cubic [11] and Reno as the loss-based
// baselines the paper contrasts it with. All protocols drive the
// netem.Emulator through the netem.CongestionController interface.
package cc

import (
	"fmt"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/netem"
)

// BBR states.
const (
	bbrStartup = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// BBR reproduces the BBR v1 control loop: a windowed-max filter over
// delivery-rate samples estimates the bottleneck bandwidth, a windowed-min
// filter over RTT samples estimates the propagation delay, pacing gain
// cycles through [1.25, 0.75, 1, 1, 1, 1, 1, 1] in ProbeBW, and every 10
// seconds the ProbeRTT state shrinks the window to re-measure the floor —
// the "infrequent, but performance-critical probing" the paper's adversary
// learns to sabotage.
type BBR struct {
	// filters
	btlBw  *mathx.WindowedMax // bits/sec, keyed by round-trip count
	minRTT *mathx.WindowedMin // seconds, keyed by time

	state      int
	cycleIndex int
	cycleStamp float64

	pacingGain float64
	cwndGain   float64

	// round counting (a "round" is one window's worth of delivery)
	roundCount     int64
	nextRoundBits  float64
	deliveredBits  float64
	sent           sentRing
	fullBwBaseline float64
	fullBwRounds   int

	// ProbeRTT bookkeeping
	minRTTStamp   float64 // when the current minRTT was last refreshed
	probeRTTDone  float64 // time ProbeRTT may end
	probeRTTRound bool

	ProbeRTTInterval float64 // seconds between RTT probes, default 10
	ProbeRTTDuration float64 // ProbeRTT dwell time, default 0.2
}

type pktState struct {
	sentAt          float64
	deliveredAtSend float64
	live            bool
}

// sentRing is BBR's record of the packets sent and neither acked nor lost:
// a ring whose length is a power of two, seq s in slot s mod len(slots),
// which doubles when full and never shrinks. Every live seq lies in the
// window [lo, hi), hi one past the latest send, and no slot outside it is
// live. Send seqs must increase (gaps are allowed); under that contract it
// behaves exactly as a map from seq to pktState, acks of seqs already lost
// or never sent included.
type sentRing struct {
	slots  []pktState
	lo, hi int64
	live   int // packets in flight
}

func (r *sentRing) slot(seq int64) *pktState { return &r.slots[int(seq)&(len(r.slots)-1)] }

// add records seq, sent with state st.
func (r *sentRing) add(seq int64, st pktState) {
	if seq < r.hi {
		panic(fmt.Sprintf("cc: BBR sent seq %d after seq %d: send seqs must increase", seq, r.hi-1))
	}
	if r.live == 0 {
		r.lo = seq
	}
	for seq-r.lo >= int64(len(r.slots)) {
		old := r.slots
		r.slots = make([]pktState, 2*len(old))
		for s := r.lo; s < r.hi; s++ {
			*r.slot(s) = old[int(s)&(len(old)-1)]
		}
	}
	st.live = true
	*r.slot(seq) = st
	r.hi = seq + 1
	r.live++
}

// remove deletes seq and returns its state, or reports that it is not in
// flight.
func (r *sentRing) remove(seq int64) (pktState, bool) {
	if seq < r.lo || seq >= r.hi {
		return pktState{}, false
	}
	p := r.slot(seq)
	st := *p
	if !st.live {
		return pktState{}, false
	}
	p.live = false
	r.live--
	for r.lo < r.hi && !r.slot(r.lo).live {
		r.lo++
	}
	return st, true
}

// clear deletes every packet in flight.
func (r *sentRing) clear() {
	for s := r.lo; s < r.hi; s++ {
		r.slot(s).live = false
	}
	r.lo, r.live = r.hi, 0
}

var bbrCycle = []float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const (
	bbrStartupGain = 2.885 // 2/ln(2)
	bbrMinCWND     = 4
	bbrInitialRing = 64 // starting length of the sentRing
)

// NewBBR returns a BBR instance with the standard 10 s ProbeRTT cadence.
func NewBBR() *BBR {
	return &BBR{
		btlBw:            mathx.NewWindowedMax(10), // 10 round trips
		minRTT:           mathx.NewWindowedMin(10), // 10 seconds
		state:            bbrStartup,
		pacingGain:       bbrStartupGain,
		cwndGain:         bbrStartupGain,
		sent:             sentRing{slots: make([]pktState, bbrInitialRing)},
		ProbeRTTInterval: 10,
		ProbeRTTDuration: 0.2,
	}
}

// Name returns the protocol name.
func (b *BBR) Name() string { return "bbr" }

// State returns a human-readable state name, for traces and tests.
func (b *BBR) State() string {
	switch b.state {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe_bw"
	case bbrProbeRTT:
		return "probe_rtt"
	}
	return "?"
}

func (b *BBR) bdpBits() float64 {
	rtt := b.minRTT.Value()
	bw := b.btlBw.Value()
	if math.IsInf(rtt, 1) || bw <= 0 {
		return 10 * netem.PacketBits
	}
	return bw * rtt
}

// PacingRate implements netem.CongestionController.
func (b *BBR) PacingRate(_ float64) float64 {
	bw := b.btlBw.Value()
	if bw <= 0 {
		// Initial rate before any delivery-rate sample.
		return 10 * netem.PacketBits / 0.1
	}
	return b.pacingGain * bw
}

// CWND implements netem.CongestionController.
func (b *BBR) CWND(_ float64) float64 {
	if b.state == bbrProbeRTT {
		return bbrMinCWND
	}
	cwnd := b.cwndGain * b.bdpBits() / netem.PacketBits
	if cwnd < bbrMinCWND {
		cwnd = bbrMinCWND
	}
	return cwnd
}

// OnPacketSent implements netem.CongestionController.
func (b *BBR) OnPacketSent(now float64, seq int64) {
	b.sent.add(seq, pktState{sentAt: now, deliveredAtSend: b.deliveredBits})
}

// OnAck implements netem.CongestionController.
func (b *BBR) OnAck(a netem.Ack) {
	if st, ok := b.sent.remove(a.Seq); ok {
		b.onDelivery(a, st, b.sent.live)
	}
}

// onDelivery runs the control loop on the ack of a packet sent with state
// st, leaving inflight packets in flight.
func (b *BBR) onDelivery(a netem.Ack, st pktState, inflight int) {
	b.deliveredBits += netem.PacketBits

	// Round accounting: one round per delivered window.
	if b.deliveredBits >= b.nextRoundBits {
		b.roundCount++
		b.nextRoundBits = b.deliveredBits + float64(inflight)*netem.PacketBits
		if b.nextRoundBits <= b.deliveredBits {
			b.nextRoundBits = b.deliveredBits + netem.PacketBits
		}
	}

	// Delivery-rate sample: data delivered since this packet was sent,
	// over the elapsed time (BBR's rate sampler).
	dt := a.Now - st.sentAt
	if dt > 0 {
		rate := (b.deliveredBits - st.deliveredAtSend) / dt
		b.btlBw.Update(float64(b.roundCount), rate)
	}

	// RTT sample.
	prevMin := b.minRTT.Value()
	newMin := b.minRTT.Update(a.Now, a.RTT)
	if newMin < prevMin || math.IsInf(prevMin, 1) {
		b.minRTTStamp = a.Now
	}

	b.updateState(a.Now, inflight)
}

func (b *BBR) updateState(now float64, inflight int) {
	switch b.state {
	case bbrStartup:
		b.checkFullBandwidth()
		if b.fullBwRounds >= 3 {
			b.state = bbrDrain
			b.pacingGain = 1 / bbrStartupGain
			b.cwndGain = bbrStartupGain
		}
	case bbrDrain:
		if float64(inflight)*netem.PacketBits <= b.bdpBits() {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCycle(now)
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.minRTTStamp = now
			if b.fullBwRounds >= 3 {
				b.enterProbeBW(now)
			} else {
				b.state = bbrStartup
				b.pacingGain = bbrStartupGain
				b.cwndGain = bbrStartupGain
			}
		}
	}
	// Enter ProbeRTT when the min-RTT estimate has gone stale.
	if b.state != bbrProbeRTT && now-b.minRTTStamp > b.ProbeRTTInterval {
		b.state = bbrProbeRTT
		b.pacingGain = 1
		b.cwndGain = 1
		b.probeRTTDone = now + b.ProbeRTTDuration
	}
}

func (b *BBR) checkFullBandwidth() {
	bw := b.btlBw.Value()
	if bw >= b.fullBwBaseline*1.25 {
		b.fullBwBaseline = bw
		b.fullBwRounds = 0
		return
	}
	if bw > 0 {
		b.fullBwRounds++
	}
}

func (b *BBR) enterProbeBW(now float64) {
	b.state = bbrProbeBW
	b.cwndGain = 2
	// Start the cycle at a random-ish but deterministic phase (phase 2,
	// the first neutral phase, as Linux BBR avoids starting on 0.75).
	b.cycleIndex = 2
	b.cycleStamp = now
	b.pacingGain = bbrCycle[b.cycleIndex]
}

func (b *BBR) advanceCycle(now float64) {
	rtt := b.minRTT.Value()
	if math.IsInf(rtt, 1) {
		rtt = 0.1
	}
	if now-b.cycleStamp >= rtt {
		b.cycleIndex = (b.cycleIndex + 1) % len(bbrCycle)
		b.cycleStamp = now
		b.pacingGain = bbrCycle[b.cycleIndex]
	}
}

// OnLoss implements netem.CongestionController. BBR v1 ignores individual
// losses (its insensitivity to random loss is why the paper's adversary must
// find a subtler weakness).
func (b *BBR) OnLoss(_ float64, seq int64) {
	b.sent.remove(seq)
}

// OnTimeout implements netem.CongestionController.
func (b *BBR) OnTimeout(_ float64) {
	b.sent.clear()
}
