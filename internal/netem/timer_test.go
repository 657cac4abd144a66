package netem

import (
	"slices"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/vclock"
)

// timeout is one RTO that fired: when, and for which flow.
type timeout struct {
	at   float64
	flow int
}

// heapTimers is the RTO as the emulator kept it before per-flow timer
// queues: every arm schedules a timer into one heap shared by all flows, and
// a timer is checked for staleness only when it pops. It is the oracle the
// per-flow queues are checked against.
type heapTimers struct {
	q           vclock.Queue
	deadline    []float64
	outstanding []bool
	lastArm     []int64 // Seq of each flow's latest arm
	arms        int64

	// What the operations exercised.
	crossTies, superseded int
	last                  vclock.Event
}

func (h *heapTimers) arm(fi int, deadline float64) {
	h.arms++
	h.deadline[fi], h.lastArm[fi] = deadline, h.arms
	h.q.Schedule(vclock.Event{At: deadline, Actor: int32(fi), Seq: h.arms})
}

// run pops every timer due at or before until and appends the timeouts that
// fire to fired.
func (h *heapTimers) run(until float64, fired []timeout) []timeout {
	for {
		ev, ok := h.q.Peek()
		if !ok || ev.At > until {
			return fired
		}
		h.q.Pop()
		if ev.At == h.last.At && ev.Actor != h.last.Actor {
			h.crossTies++
		}
		h.last = ev
		fi := int(ev.Actor)
		if ev.At < h.deadline[fi]-1e-9 || !h.outstanding[fi] {
			continue
		}
		if ev.Seq != h.lastArm[fi] {
			h.superseded++
		}
		h.outstanding[fi] = false
		fired = append(fired, timeout{ev.At, fi})
	}
}

// timeoutLog records the flow's timeouts into a log shared by all flows.
type timeoutLog struct {
	callbackLog
	flow  int
	fired *[]timeout
}

func (c *timeoutLog) OnTimeout(now float64) { *c.fired = append(*c.fired, timeout{now, c.flow}) }

// TestRTOTimersMatchHeapOracle drives the emulator's own armRTO, StepEvent
// and handleRTO — with no packet events, so only timers fire — and the
// one-heap oracle through the same seeded operations: arms at non-decreasing
// times, several at one instant, with an RTO that shrinks as well as grows
// (or a fixed Config.RTOSeconds); outstanding data switched on and off; and
// runs to a deadline. Times and RTOs sit on a binary grid, so timers of
// different flows, and a superseded timer and its successor, fall due at the
// same instant; some RTOs are moved off it by less than handleRTO's 1e-9
// slack. After every run both report the same timeouts, at the same times,
// for the same flows, in the same order.
func TestRTOTimersMatchHeapOracle(t *testing.T) {
	var fired, crossTies, superseded, maxPending int
	for seed := uint64(1); seed <= 8; seed++ {
		r := mathx.NewRNG(seed)
		nFlows := 1 + r.Intn(5)
		var got, want []timeout
		ccs := make([]CongestionController, nFlows)
		for i := range ccs {
			ccs[i] = &timeoutLog{flow: i, fired: &got}
		}
		c := cfg(10, 10, 0, 64)
		if seed%3 == 0 {
			c.RTOSeconds = 0.75
		}
		e := NewMulti(ccs, c, r.Split())
		e.events = vclock.Queue{} // no pacing clock: the operations alone drive the flows
		h := &heapTimers{
			deadline:    make([]float64, nFlows),
			outstanding: make([]bool, nFlows),
			lastArm:     make([]int64, nFlows),
		}
		for op := 0; op < 3000; op++ {
			// Time moves only by running to a deadline, as it does in the
			// emulator: no timer is ever left pending in the past.
			if r.Float64() < 0.6 {
				until := e.now + float64(r.Intn(8))*0.125
				e.Run(until)
				want = h.run(until, want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: timeouts %v, oracle %v", seed, op, got, want)
				}
			}
			fi := r.Intn(nFlows)
			f := &e.flows[fi]
			if r.Float64() < 0.7 {
				f.srtt = float64(r.Intn(17)) * 0.0625 // an RTO of 1 to 4 s
				if r.Float64() < 0.3 {
					f.srtt += float64(r.Intn(5)-2) * 1e-10 // inside the 1e-9 slack
				}
				e.armRTO(fi)
				h.arm(fi, f.rtoDeadline)
				maxPending = max(maxPending, f.timers.Len())
				continue
			}
			if f.inflight() == 0 {
				f.nextSeq++
			} else {
				f.lo = f.nextSeq
			}
			h.outstanding[fi] = f.inflight() > 0
		}
		fired += len(want)
		crossTies += h.crossTies
		superseded += h.superseded
	}
	if fired == 0 || crossTies == 0 || superseded == 0 || maxPending < 3 {
		t.Fatalf("%d timeouts, %d cross-flow ties, %d superseded timers fired, at most %d timers pending in one flow: the operations no longer exercise what they pin",
			fired, crossTies, superseded, maxPending)
	}
}

// TestTimerTiesWithPacketEventsByStamp: a timer and a packet event due at
// the same instant run in the order they were stamped, as they did when both
// sat in one heap. A packet goes out at 0 s and arms the 1 s RTO; its ack is
// due at exactly 1 s. Stamped before the arm, the ack runs first and the
// timer finds it superseded; stamped after, the timer fires first and the ack
// finds its packet already declared lost.
func TestTimerTiesWithPacketEventsByStamp(t *testing.T) {
	for _, ackFirst := range []bool{true, false} {
		log := &callbackLog{}
		e := New(log, cfg(10, 10, 1, 64), mathx.NewRNG(1)) // every packet is dropped at the entrance
		e.events = vclock.Queue{}                          // no pacing clock: only the events below
		if ackFirst {
			e.schedule(1, evAckArrive, 0)
		}
		e.sendPacket(0)
		if !ackFirst {
			e.schedule(1, evAckArrive, 0)
		}
		e.Run(1)
		if acked := len(log.acks) == 1; acked != ackFirst || log.timeouts != 1-len(log.acks) {
			t.Errorf("ack stamped first %v: %d acks, %d timeouts", ackFirst, len(log.acks), log.timeouts)
		}
	}
}

// TestSupersededTimerFires pins the quirk handleRTO names. The flow arms at
// 0 s with an 8 s RTO (srtt 2 s), then at 7 s with the RTO shrunk to 1 s:
// the same deadline, 8 s. An ack due at 8 s is queued between the two arms.
// The superseded timer pops first and fires the timeout, so the ack finds
// its packet already declared lost. A one-timer-per-flow design would
// deliver the ack, signal the loss it implies and fire nothing.
func TestSupersededTimerFires(t *testing.T) {
	log := &callbackLog{}
	e := New(log, cfg(10, 10, 1, 64), mathx.NewRNG(1)) // every packet is dropped at the entrance
	e.events = vclock.Queue{}                          // no pacing clock: only the events below
	f := &e.flows[0]
	f.srtt = 2
	e.sendPacket(0) // arms the timer due at 8 s
	e.sendPacket(0)
	e.schedule(8, evAckArrive, 1) // flow 0, seq 1
	e.now, f.srtt = 7, 0.25
	e.armRTO(0)
	e.Run(8)
	if log.timeouts != 1 || len(log.acks) != 0 || len(log.losses) != 0 {
		t.Fatalf("%d timeouts, acks %v, losses %v: want the superseded timer's timeout alone", log.timeouts, log.acks, log.losses)
	}
}
