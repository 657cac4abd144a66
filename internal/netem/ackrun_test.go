package netem

import (
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/vclock"
)

// oneHeap is the packet clock as the emulator kept it before ack runs: every
// packet event, each ack in flight included, sits in one heap. It runs an
// emulator's own handlers from that heap, moving whatever they queue — on
// the packet heap or in the ack runs — into it with the stamp it was given,
// and takes RTO timers as StepEvent does. It is the oracle the ack runs are
// checked against.
type oneHeap struct {
	e *Emulator
	q vclock.Queue
}

// absorb moves every event the handlers queued into the one heap.
func (o *oneHeap) absorb() {
	for ev, ok := o.e.events.Pop(); ok; ev, ok = o.e.events.Pop() {
		if eventKind(ev.Kind) != evAckArrive { // a run's head, taken with its run
			o.q.Push(ev)
		}
	}
	for i := range o.e.acks {
		r := &o.e.acks[i]
		for ; r.n > 0; r.n-- {
			ev := r.ev[r.head]
			ev.Actor = 0
			o.q.Push(ev)
			r.head = (r.head + 1) & (len(r.ev) - 1)
		}
	}
}

// step processes the earliest pending event by the one-heap rule if it
// fires at or before until, and returns it.
func (o *oneHeap) step(until float64) (ev vclock.Event, timer, ok bool) {
	o.absorb()
	e := o.e
	ev, ok = o.q.Peek()
	if e.timerFlow >= 0 {
		if t, _ := e.flows[e.timerFlow].timers.Peek(); !ok || t.Before(&ev) {
			ev, timer, ok = t, true, true
		}
	}
	if !ok || ev.At > until {
		return ev, timer, false
	}
	e.now = max(e.now, ev.At)
	if timer {
		fi := e.timerFlow
		e.flows[fi].timers.Pop()
		e.retime(fi)
		e.handleRTO(fi, ev.At)
		return ev, true, true
	}
	o.q.Pop()
	switch eventKind(ev.Kind) {
	case evSend:
		e.handleSend(int(ev.Seq))
	case evDequeue:
		e.handleDequeue()
	case evAckArrive:
		e.handleAck(int(ev.Seq>>40), ev.Seq&((1<<40)-1))
	}
	return ev, false, true
}

// popped is one processed event: the event as stamped, with an ack's run
// index cleared, and whether it was an RTO timer.
type popped struct {
	ev    vclock.Event
	timer bool
}

// paceCC paces at a fixed rate under a fixed window.
type paceCC struct {
	callbackLog
	rate, cwnd float64
}

func (p *paceCC) PacingRate(float64) float64 { return p.rate }
func (p *paceCC) CWND(float64) float64       { return p.cwnd }

// TestAckRunsMatchHeapOracle runs two emulators built alike through the
// same seeded schedules: one on its own event loop (StepEvent, ack runs and
// all), the other on the one-heap oracle. The one-way delay collapses
// (60 → 15 → 5 ms), rises and wanders; bandwidth, window and pacing vary;
// random loss steps between 0, a few percent and 1, long enough for RTOs to
// fire; and acks are injected at the instant of a pending ack, so acks of
// different runs, and an ack and a run's tail, tie in time. After every
// 30 ms interval both processed the same events in the same order, stamps
// included, and the packet heap holds exactly each flow's send, the
// dequeue while the link is busy and one head per ack run in use.
func TestAckRunsMatchHeapOracle(t *testing.T) {
	var maxLive, maxRing, reused, ties, timeouts int
	for seed := uint64(1); seed <= 6; seed++ {
		r := mathx.NewRNG(seed)
		nFlows := 1 + r.Intn(3)
		build := func() *Emulator {
			ccs := make([]CongestionController, nFlows)
			for i := range ccs {
				ccs[i] = &paceCC{rate: (6 + 3*float64(i)) * 1e6, cwnd: []float64{20, 400, 1e9}[(int(seed)+i)%3]}
			}
			return NewMulti(ccs, cfg(24, 60, 0, 256), mathx.NewRNG(seed+100))
		}
		e, o := build(), &oneHeap{e: build()}
		var got, want []popped
		drained := make([]bool, 0, 8) // per run: emptied after holding acks
		var delays []float64          // the delay schedule still to apply
		c := Conditions{BandwidthMbps: 24, OneWayDelayMs: 60}
		for iv := 1; iv <= 1500; iv++ {
			if iv%4 == 0 {
				if len(delays) == 0 {
					switch r.Intn(4) {
					case 0:
						delays = []float64{60, 15, 5}
					case 1:
						delays = []float64{5, 15, 60}
					default:
						delays = []float64{r.Uniform(5, 60)}
					}
				}
				c.OneWayDelayMs, delays = delays[0], delays[1:]
				c.BandwidthMbps = r.Uniform(6, 24)
				switch u := r.Float64(); {
				case u < 0.02:
					c.LossRate = 1
				case u < 0.2:
					c.LossRate = 0.05
				case u < 0.6:
					c.LossRate = 0
				}
			}
			e.SetConditions(c)
			o.e.SetConditions(c)
			if r.Float64() < 0.3 { // an ack due with a pending one
				fi := r.Intn(nFlows)
				if at, ok := pendingAckAt(e, r); ok && e.flows[fi].nextSeq > 0 {
					seq := int64(fi)<<40 | int64(r.Intn(int(e.flows[fi].nextSeq))) // a packet already sent
					e.schedule(at, evAckArrive, seq)
					o.e.schedule(at, evAckArrive, seq)
					ties++
				}
			}
			until := float64(iv) * 0.03
			got, want = got[:0], want[:0]
			for {
				ev, timer, ok := e.next()
				if !ok || ev.At > until {
					break
				}
				e.StepEvent(until)
				ev.Actor = 0
				got = append(got, popped{ev, timer})
				live := 0
				for i := range e.acks {
					if i == len(drained) {
						drained = append(drained, false)
					}
					if n := e.acks[i].n; n > 0 {
						live++
						if drained[i] {
							drained[i] = false
							reused++
						}
					} else if !drained[i] {
						drained[i] = true
					}
					maxRing = max(maxRing, len(e.acks[i].ev))
				}
				maxLive = max(maxLive, live)
				busy := 0
				if e.busy {
					busy = 1
				}
				if e.events.Len() != nFlows+busy+live {
					t.Fatalf("seed %d interval %d: %d events on the packet heap, want %d sends, %d dequeue and %d run heads",
						seed, iv, e.events.Len(), nFlows, busy, live)
				}
			}
			e.Run(until)
			for {
				ev, timer, ok := o.step(until)
				if !ok {
					break
				}
				want = append(want, popped{ev, timer})
			}
			o.e.now = max(o.e.now, until)
			if len(got) != len(want) {
				t.Fatalf("seed %d interval %d: %d events processed, oracle %d", seed, iv, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d interval %d event %d: processed %+v, oracle %+v", seed, iv, i, got[i], want[i])
				}
			}
		}
		if e.Stats() != o.e.Stats() {
			t.Fatalf("seed %d: stats %+v, oracle %+v", seed, e.Stats(), o.e.Stats())
		}
		timeouts += int(e.Stats().Timeouts)
	}
	t.Logf("at most %d runs live at once, %d drained runs reused, runs grown to %d slots, %d injected ties, %d timeouts",
		maxLive, reused, maxRing, ties, timeouts)
	if maxLive < 3 || reused == 0 || maxRing <= initialRun || ties == 0 || timeouts == 0 {
		t.Fatalf("at most %d runs live at once, %d drained runs reused, runs grown to %d slots, %d injected ties, %d timeouts: the operations no longer exercise what they pin",
			maxLive, reused, maxRing, ties, timeouts)
	}
}

// pendingAckAt returns the instant of an ack in flight — some run's head or
// tail — if there is one.
func pendingAckAt(e *Emulator, r *mathx.RNG) (float64, bool) {
	var live []*ackRun
	for i := range e.acks {
		if e.acks[i].n > 0 {
			live = append(live, &e.acks[i])
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	run := live[r.Intn(len(live))]
	if r.Float64() < 0.5 {
		return run.ev[run.head].At, true
	}
	return run.tail().At, true
}
