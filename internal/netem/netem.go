// Package netem is a packet-granularity, event-driven emulator of a single
// bottleneck link in virtual time — the repository's stand-in for the
// modified Mahimahi [18] the paper uses for its congestion-control study
// (§4). It models a droptail queue served at a configurable (and
// adversary-mutable) rate, symmetric propagation delay, and Bernoulli random
// loss, shared by one or more congestion-controlled flows. Unlike Mahimahi,
// virtual time makes runs deterministic and much faster than real time; the
// paper notes Mahimahi's wall-clock timing is not reproducible, which our
// substitution deliberately fixes.
package netem

import (
	"fmt"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/vclock"
)

// PacketBits is the size of every data packet (1500 bytes).
const PacketBits = 12000

// FallbackPacingBps is the floor of the pacing rate substituted when a
// controller reports a non-positive PacingRate: one packet per second
// (12 kbit/s). It exists to keep the send clock ticking — a rate of zero
// would schedule the next send infinitely far away and silently freeze the
// flow. Once the flow has an RTT sample, a positive congestion window raises
// the substitute to one window per smoothed RTT, so a window-only controller
// progresses at window speed (see handleSend).
const FallbackPacingBps = PacketBits

// Ack is the feedback delivered to the congestion controller when a data
// packet is acknowledged.
type Ack struct {
	Seq int64
	Now float64 // virtual time the ack reached the sender
	RTT float64 // measured round-trip time of the acked packet
}

// CongestionController is the sender-side algorithm under test. The emulator
// paces packets at PacingRate subject to a congestion window of CWND packets
// in flight, and reports acks, losses and timeouts.
type CongestionController interface {
	// PacingRate returns the target sending rate in bits per second.
	PacingRate(now float64) float64
	// CWND returns the congestion window in packets.
	CWND(now float64) float64
	// OnPacketSent notifies that seq left the sender.
	OnPacketSent(now float64, seq int64)
	// OnAck delivers an acknowledgment.
	OnAck(a Ack)
	// OnLoss reports that seq was declared lost (gap-detected).
	OnLoss(now float64, seq int64)
	// OnTimeout reports a retransmission timeout; all in-flight data was
	// declared lost.
	OnTimeout(now float64)
}

// Conditions are the link parameters in force at a moment in time — exactly
// the tuple the paper's congestion-control adversary outputs every 30 ms.
type Conditions struct {
	BandwidthMbps float64
	OneWayDelayMs float64
	LossRate      float64
}

// Config parameterizes an emulator.
type Config struct {
	Initial      Conditions
	QueuePackets int // droptail capacity; 0 means 64
	RTOSeconds   float64
	// RTO; 0 means max(1s, 4 * srtt) with srtt tracked internally
}

// Stats accumulates link-level counters over all flows.
type Stats struct {
	Sent           int64
	DeliveredPkts  int64
	DeliveredBits  float64
	DroppedRandom  int64
	DroppedTail    int64
	LossesSignaled int64
	Timeouts       int64
}

type eventKind int

// Event payload (vclock.Event.Seq): the flow index for evSend, flow<<40 |
// packet seq for evAckArrive, unused for evDequeue; an evAckArrive's Actor
// is its ack run (see queueAck). RTO timers are not packet events: each flow
// queues its own (see armRTO).
const (
	evSend eventKind = iota
	evDequeue
	evAckArrive
)

// flow is the sender-side state of one controller.
//
// Its in-flight set is always the contiguous window [lo, nextSeq): a send
// appends nextSeq; an ack of an in-flight seq removes it and every packet
// below it (the link is in order, so those were dropped); an ack below lo is
// of a packet already declared lost; an RTO empties the window. The send
// times of the window live in sentAt, a ring whose length is a power of two,
// seq s in slot s mod len(sentAt). It doubles when full and never shrinks.
type flow struct {
	cc          CongestionController
	sentAt      []float64
	lo          int64 // oldest unacknowledged seq
	nextSeq     int64
	nextSendAt  float64
	rtoDeadline float64
	timers      vclock.Queue // pending RTO timers, stamped by Emulator.events
	srtt        float64
	bits        float64 // delivered through the bottleneck
}

const (
	initialWindow = 64 // starting length of a flow's sentAt ring
	initialTimers = 4  // starting capacity of a flow's timer queue
	initialRun    = 64 // starting length of an ack run's ring
)

// inflight returns the number of unacknowledged packets.
func (f *flow) inflight() int { return int(f.nextSeq - f.lo) }

// slot returns the index of seq's send time in sentAt.
func (f *flow) slot(seq int64) int { return int(seq) & (len(f.sentAt) - 1) }

// grow doubles sentAt, moving the window to its slots in the longer ring.
func (f *flow) grow() {
	old := f.sentAt
	f.sentAt = make([]float64, 2*len(old))
	for s := f.lo; s < f.nextSeq; s++ {
		f.sentAt[f.slot(s)] = old[int(s)&(len(old)-1)]
	}
}

// ackRun is a ring of stamped evAckArrive events in (At, id) order, from
// head on: the acks of one delay epoch. Its length is a power of two; it
// doubles when full and never shrinks.
type ackRun struct {
	ev   []vclock.Event
	head int
	n    int
}

// tail returns the run's latest event; the run must not be empty.
func (r *ackRun) tail() *vclock.Event { return &r.ev[(r.head+r.n-1)&(len(r.ev)-1)] }

func (r *ackRun) push(ev vclock.Event) {
	if r.n == len(r.ev) {
		old := r.ev
		r.ev = make([]vclock.Event, 2*len(old))
		for i := 0; i < r.n; i++ {
			r.ev[i] = old[(r.head+i)&(len(old)-1)]
		}
		r.head = 0
	}
	r.ev[(r.head+r.n)&(len(r.ev)-1)] = ev
	r.n++
}

type queuedPacket struct {
	flow int
	seq  int64
}

// Emulator drives one or more congestion controllers over one emulated link:
// the paper's single-sender study (§4) and, with several flows, the substrate
// for fairness scenarios and the §5-style adversarial goals (e.g. maximizing
// the congestion competing flows inflict on each other). The flow count
// selects nothing but pacing jitter (see handleSend).
type Emulator struct {
	flows []flow
	rng   *mathx.RNG
	cond  Conditions
	cfg   Config

	now    float64
	events vclock.Queue // packet events: sends, the dequeue, each ack run's head
	// acks holds the acks in flight as sorted runs, of which the packet
	// heap holds only the heads; lastRun is the run the latest ack joined.
	acks    []ackRun
	lastRun int
	// timerFlow is the flow holding the earliest pending RTO timer of all
	// flows, or -1 when no flow holds one.
	timerFlow int

	// queue is the droptail buffer: a ring of cfg.QueuePackets slots holding
	// queueLen packets from queueHead on, the head in service.
	queue     []queuedPacket
	queueHead int
	queueLen  int
	busy      bool // bottleneck serializing a packet

	stats Stats
}

// New creates an emulator around cc: NewMulti with one flow.
func New(cc CongestionController, cfg Config, rng *mathx.RNG) *Emulator {
	return NewMulti([]CongestionController{cc}, cfg, rng)
}

// NewMulti creates an emulator whose link is shared by the given
// controllers. rng drives random loss and, with more than one flow, pacing
// jitter.
func NewMulti(ccs []CongestionController, cfg Config, rng *mathx.RNG) *Emulator {
	if len(ccs) == 0 {
		panic("netem: NewMulti with no flows")
	}
	if cfg.QueuePackets <= 0 {
		cfg.QueuePackets = 64
	}
	e := &Emulator{
		flows:     make([]flow, len(ccs)),
		rng:       rng,
		cond:      cfg.Initial,
		cfg:       cfg,
		timerFlow: -1,
		queue:     make([]queuedPacket, cfg.QueuePackets),
	}
	for i, cc := range ccs {
		e.flows[i] = flow{cc: cc, sentAt: make([]float64, initialWindow)}
		e.flows[i].timers.Grow(initialTimers)
		e.schedule(0, evSend, int64(i))
	}
	return e
}

// Now returns the current virtual time in seconds.
func (e *Emulator) Now() float64 { return e.now }

// Stats returns a copy of the accumulated counters.
func (e *Emulator) Stats() Stats { return e.stats }

// SetConditions changes the link parameters, taking effect for packets
// serviced from now on (the adversary's action application point). It panics
// on values no link has, NaN and ±Inf included: an event scheduled at a NaN
// time cannot be ordered.
func (e *Emulator) SetConditions(c Conditions) {
	if !(c.BandwidthMbps > 0) || math.IsInf(c.BandwidthMbps, 0) {
		panic(fmt.Sprintf("netem: bandwidth %v", c.BandwidthMbps))
	}
	if !(c.OneWayDelayMs >= 0) || math.IsInf(c.OneWayDelayMs, 0) || !(c.LossRate >= 0 && c.LossRate <= 1) {
		panic("netem: invalid conditions")
	}
	e.cond = c
}

// QueueingDelay returns the time a packet entering the queue now would wait
// before being serviced, in seconds.
func (e *Emulator) QueueingDelay() float64 {
	return float64(e.queueLen) * PacketBits / (e.cond.BandwidthMbps * 1e6)
}

// FlowDeliveredBits returns the bits delivered through the bottleneck for
// one flow.
func (e *Emulator) FlowDeliveredBits(i int) float64 { return e.flows[i].bits }

func (e *Emulator) schedule(at float64, kind eventKind, seq int64) {
	ev := vclock.Event{At: at, Kind: int32(kind), Seq: seq}
	if kind == evAckArrive {
		e.queueAck(e.events.Stamp(ev))
		return
	}
	e.events.Schedule(ev)
}

// queueAck appends a stamped ack to an ack run: the latest run if the ack
// does not precede its tail, else the first run whose tail it does not
// precede, else an empty run, else a new one. Only a run's head sits on the
// packet heap, and popping it pushes the next (popAck), so the heap merges
// the sorted runs: acks pop in the (At, id) order one heap holding every ack
// gives, ties included. A later stamp sorts after every earlier one at the
// same instant, so an ack that is not before a run's tail in time is after
// it. Every ack is due now + 2·delay and now never decreases, so acks of one
// delay join one run, and a run opens only when the delay drops.
func (e *Emulator) queueAck(ev vclock.Event) {
	r := e.lastRun
	if r >= len(e.acks) || e.acks[r].n == 0 || ev.At < e.acks[r].tail().At {
		r = -1
		for i := range e.acks {
			if run := &e.acks[i]; run.n == 0 {
				if r < 0 {
					r = i
				}
			} else if ev.At >= run.tail().At {
				r = i
				break
			}
		}
		if r < 0 {
			r = len(e.acks)
			e.acks = append(e.acks, ackRun{ev: make([]vclock.Event, initialRun)})
		}
	}
	ev.Actor = int32(r)
	run := &e.acks[r]
	if run.n == 0 {
		e.events.Push(ev)
	}
	run.push(ev)
	e.lastRun = r
}

// popAck removes the head of ack run r, just popped from the packet heap,
// and puts the run's next ack there with its original stamp.
func (e *Emulator) popAck(r int) {
	run := &e.acks[r]
	run.head = (run.head + 1) & (len(run.ev) - 1)
	run.n--
	if run.n > 0 {
		e.events.Push(run.ev[run.head])
	}
}

// Run advances virtual time until the given instant, processing all events.
func (e *Emulator) Run(until float64) {
	for e.StepEvent(until) {
	}
	if until > e.now {
		e.now = until
	}
}

// NextEventAt returns the virtual time of the earliest pending event. A
// composite simulation (e.g. a swarm group multiplexing chunk wake-ups over
// this emulator) uses it to interleave its own events with packet events on
// one shared clock.
func (e *Emulator) NextEventAt() (float64, bool) {
	ev, _, ok := e.next()
	return ev.At, ok
}

// next returns the earliest pending event: the packet heap's top or the
// earliest RTO timer of any flow, whichever fires first, and whether it is
// the timer. Timers are stamped by the packet heap, so this is the order one
// heap holding both would pop them in.
func (e *Emulator) next() (ev vclock.Event, timer, ok bool) {
	ev, ok = e.events.Peek()
	if e.timerFlow >= 0 {
		if t, _ := e.flows[e.timerFlow].timers.Peek(); !ok || t.Before(&ev) {
			return t, true, true
		}
	}
	return ev, false, ok
}

// StepEvent processes the single earliest pending event if it fires at or
// before until, advancing Now to that event's time. It reports whether an
// event was processed. Run is a loop over StepEvent; external clocks step
// one event at a time so they can observe per-flow delivery between packet
// events.
func (e *Emulator) StepEvent(until float64) bool {
	ev, timer, ok := e.next()
	if !ok || ev.At > until {
		return false
	}
	if ev.At > e.now {
		e.now = ev.At
	}
	if timer {
		fi := e.timerFlow
		e.flows[fi].timers.Pop()
		e.retime(fi)
		e.handleRTO(fi, ev.At)
		return true
	}
	e.events.Pop()
	switch eventKind(ev.Kind) {
	case evSend:
		e.handleSend(int(ev.Seq))
	case evDequeue:
		e.handleDequeue()
	case evAckArrive:
		e.popAck(int(ev.Actor))
		e.handleAck(int(ev.Seq>>40), ev.Seq&((1<<40)-1))
	}
	return true
}

// handleSend is the flow's pacing clock. Exactly one evSend per flow is
// outstanding from NewMulti onward: every call ends by scheduling the next.
func (e *Emulator) handleSend(fi int) {
	f := &e.flows[fi]
	cwnd := f.cc.CWND(e.now)
	rate := f.cc.PacingRate(e.now)
	if rate <= 0 {
		// Window-only controller: one window per smoothed RTT.
		rate = FallbackPacingBps
		if cwnd > 0 && f.srtt > 0 {
			if wr := cwnd * PacketBits / f.srtt; wr > rate {
				rate = wr
			}
		}
	}
	sent := false
	for float64(f.inflight()) < cwnd && e.now >= f.nextSendAt-1e-12 {
		e.sendPacket(fi)
		gap := PacketBits / rate
		if len(e.flows) > 1 {
			// ±5% pacing jitter models sender-side OS scheduling noise
			// and, crucially, breaks the deterministic phase lock that
			// would otherwise let one of two identically-paced flows
			// always reach the droptail queue first. A lone flow has no
			// other to lock phase with and draws nothing.
			gap *= e.rng.Uniform(0.95, 1.05)
		}
		f.nextSendAt = e.now + gap
		sent = true
	}
	var next float64
	if sent || float64(f.inflight()) < cwnd {
		next = math.Max(f.nextSendAt, e.now+1e-6)
	} else {
		// cwnd-limited: poll again shortly, so a window freed by an ack
		// is picked up without handleAck scheduling extra send events.
		next = e.now + 0.001
	}
	e.schedule(next, evSend, int64(fi))
}

func (e *Emulator) sendPacket(fi int) {
	f := &e.flows[fi]
	if f.inflight() == len(f.sentAt) {
		f.grow()
	}
	seq := f.nextSeq
	f.nextSeq++
	f.sentAt[f.slot(seq)] = e.now
	e.stats.Sent++
	f.cc.OnPacketSent(e.now, seq)
	if f.inflight() == 1 {
		e.armRTO(fi) // first outstanding packet starts the timer
	}

	// Random loss is applied at the link entrance.
	if e.rng.Bernoulli(e.cond.LossRate) {
		e.stats.DroppedRandom++
		return
	}
	if e.queueLen == len(e.queue) {
		e.stats.DroppedTail++
		return
	}
	e.queue[(e.queueHead+e.queueLen)%len(e.queue)] = queuedPacket{flow: fi, seq: seq}
	e.queueLen++
	if !e.busy {
		e.startService()
	}
}

func (e *Emulator) startService() {
	e.busy = true
	service := PacketBits / (e.cond.BandwidthMbps * 1e6)
	e.schedule(e.now+service, evDequeue, 0)
}

func (e *Emulator) handleDequeue() {
	if e.queueLen == 0 {
		e.busy = false
		return
	}
	pkt := e.queue[e.queueHead]
	e.queueHead = (e.queueHead + 1) % len(e.queue)
	e.queueLen--
	e.stats.DeliveredPkts++
	e.stats.DeliveredBits += PacketBits
	e.flows[pkt.flow].bits += PacketBits
	// One-way delay to the receiver plus the (uncongested) ack path back.
	ackAt := e.now + 2*e.cond.OneWayDelayMs/1000
	e.schedule(ackAt, evAckArrive, int64(pkt.flow)<<40|pkt.seq)
	if e.queueLen > 0 {
		e.startService()
	} else {
		e.busy = false
	}
}

func (e *Emulator) handleAck(fi int, seq int64) {
	f := &e.flows[fi]
	if seq < f.lo {
		return // already declared lost, by gap detection or RTO
	}
	rtt := e.now - f.sentAt[f.slot(seq)]
	if f.srtt == 0 {
		f.srtt = rtt
	} else {
		f.srtt = 0.875*f.srtt + 0.125*rtt
	}

	// In-order link: every unacked packet with a lower sequence was
	// dropped. Those are the window's prefix lo … seq−1, signaled in
	// ascending sequence order before the ack itself.
	for ; f.lo < seq; f.lo++ {
		e.stats.LossesSignaled++
		f.cc.OnLoss(e.now, f.lo)
	}
	f.lo = seq + 1
	f.cc.OnAck(Ack{Seq: seq, Now: e.now, RTT: rtt})
	e.armRTO(fi)
}

// armRTO moves flow fi's RTO deadline to now + rto and queues a timer for
// it, stamped where the packet heap would have stamped it. Every rto is at
// least rtoMin, and now never decreases, so every later deadline is at least
// fl(now + rtoMin): a pending timer due before fl(now + rtoMin) − 1e-9 would
// fail handleRTO's staleness test, and is dropped here instead. Those timers
// are a prefix of the flow's queue.
func (e *Emulator) armRTO(fi int) {
	f := &e.flows[fi]
	rto, rtoMin := 1.0, 1.0
	if e.cfg.RTOSeconds > 0 {
		rto, rtoMin = e.cfg.RTOSeconds, e.cfg.RTOSeconds
	} else if f.srtt > 0 {
		rto = math.Max(1.0, 4*f.srtt)
	}
	f.rtoDeadline = e.now + rto
	dead := e.now + rtoMin - 1e-9
	for at, ok := f.timers.PeekAt(); ok && at < dead; at, ok = f.timers.PeekAt() {
		f.timers.Pop()
	}
	f.timers.Push(e.events.Stamp(vclock.Event{At: f.rtoDeadline}))
	e.retime(fi)
}

// retime restores timerFlow after flow fi's timer queue changed. A flow
// other than the leader can only have taken the lead; a change to the
// leader can move the earliest timer later, and only then are all flows
// scanned: at most once per arm or timer pop, no more often than the swarm
// already scans its clients for completions.
func (e *Emulator) retime(fi int) {
	if fi != e.timerFlow {
		if e.timerBefore(fi, e.timerFlow) {
			e.timerFlow = fi
		}
		return
	}
	e.timerFlow = -1
	for i := range e.flows {
		if e.timerBefore(i, e.timerFlow) {
			e.timerFlow = i
		}
	}
}

// timerBefore reports whether flow i holds a timer due before every timer of
// flow j, which when j is -1 holds none.
func (e *Emulator) timerBefore(i, j int) bool {
	t, ok := e.flows[i].timers.Peek()
	if !ok || j < 0 {
		return ok
	}
	u, _ := e.flows[j].timers.Peek()
	return t.Before(&u)
}

// handleRTO runs flow fi's timer due at at. Its staleness test compares at
// with the flow's current deadline, not with the arm that queued the timer,
// so a timer that a later arm superseded still passes it when that arm left
// the deadline at or before at + 1e-9, as a shrinking RTO can. Such a timer
// fires only when it pops ahead of the live timer (due at the same instant,
// or within the slack) with packets outstanding, and then fires the timeout
// in the live timer's place. A one-timer-per-flow design would fire at the
// live timer instead, reordering the timeout against the events between the
// two: a change to the golden streams, pinned by TestSupersededTimerFires.
func (e *Emulator) handleRTO(fi int, at float64) {
	f := &e.flows[fi]
	if at < f.rtoDeadline-1e-9 || f.inflight() == 0 {
		return
	}
	f.lo = f.nextSeq
	e.stats.Timeouts++
	f.cc.OnTimeout(e.now)
}

// IntervalStats measures delivery over a window, for the adversary's
// utilization observation.
type IntervalStats struct {
	start         float64
	deliveredBits float64
}

// BeginInterval snapshots the counters at the start of an observation window.
func (e *Emulator) BeginInterval() IntervalStats {
	return IntervalStats{start: e.now, deliveredBits: e.stats.DeliveredBits}
}

// Utilization returns the fraction of the link capacity used since the
// snapshot, given the capacity in force over the window.
func (e *Emulator) Utilization(s IntervalStats, capacityMbps float64) float64 {
	dt := e.now - s.start
	if dt <= 0 || capacityMbps <= 0 {
		return 0
	}
	u := (e.stats.DeliveredBits - s.deliveredBits) / (capacityMbps * 1e6 * dt)
	return mathx.Clamp(u, 0, 1)
}

// ThroughputMbps returns the delivery rate since the snapshot in Mbps.
func (e *Emulator) ThroughputMbps(s IntervalStats) float64 {
	dt := e.now - s.start
	if dt <= 0 {
		return 0
	}
	return (e.stats.DeliveredBits - s.deliveredBits) / dt / 1e6
}
