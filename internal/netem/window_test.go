package netem

import (
	"slices"
	"testing"

	"advnet/internal/mathx"
)

// mapWindow is the in-flight set as the emulator kept it before the window:
// a map from seq to send time whose implied losses, on an ack, are collected
// by ranging over the map and then sorted. It is the oracle the window is
// checked against.
type mapWindow struct {
	inflight map[int64]float64
	nextSeq  int64
}

func (m *mapWindow) send(now float64) {
	m.inflight[m.nextSeq] = now
	m.nextSeq++
}

// ack returns the acked packet's RTT and the losses the ack implies, in
// signaling order; ok is false for a packet no longer in flight.
func (m *mapWindow) ack(seq int64, now float64) (rtt float64, losses []int64, ok bool) {
	sentAt, ok := m.inflight[seq]
	if !ok {
		return 0, nil, false
	}
	delete(m.inflight, seq)
	for s := range m.inflight {
		if s < seq {
			losses = append(losses, s)
		}
	}
	slices.Sort(losses)
	for _, s := range losses {
		delete(m.inflight, s)
	}
	return now - sentAt, losses, true
}

// timeout empties the set and reports whether an RTO fires.
func (m *mapWindow) timeout() bool {
	if len(m.inflight) == 0 {
		return false
	}
	clear(m.inflight)
	return true
}

// lowest returns the smallest in-flight seq; the set must not be empty.
func (m *mapWindow) lowest() int64 {
	lo := m.nextSeq
	for s := range m.inflight {
		lo = min(lo, s)
	}
	return lo
}

// callbackLog records the acks, losses and timeouts signaled to it.
type callbackLog struct {
	acks     []Ack
	losses   []int64
	timeouts int
}

func (c *callbackLog) PacingRate(float64) float64  { return 0 }
func (c *callbackLog) CWND(float64) float64        { return 0 }
func (c *callbackLog) OnPacketSent(float64, int64) {}
func (c *callbackLog) OnAck(a Ack)                 { c.acks = append(c.acks, a) }
func (c *callbackLog) OnLoss(_ float64, seq int64) { c.losses = append(c.losses, seq) }
func (c *callbackLog) OnTimeout(float64)           { c.timeouts++ }

// TestWindowMatchesMapOracle drives the emulator's own send, ack and RTO
// handlers and the map-plus-sort oracle through the same seeded operations:
// bursts of sends, in-order acks, acks that overtake part or most of the
// window, stale acks of packets already acked or declared lost, and RTOs.
// Phases alternate between shallow windows and windows deep enough that the
// ring doubles several times, while sequence numbers wrap it continually.
// After every operation the two agree on the losses signaled and their
// order, the ack's RTT, the timeouts, the in-flight count and the send time
// of every packet in flight.
func TestWindowMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		log := &callbackLog{}
		// Every packet is dropped at the link entrance, so the test, not the
		// link, decides which acks arrive and when.
		e := New(log, cfg(10, 10, 1, 64), mathx.NewRNG(seed))
		f := &e.flows[0]
		m := &mapWindow{inflight: map[int64]float64{}}
		r := mathx.NewRNG(seed + 1000)
		var target, wantLosses, wantTimeouts int
		for op := 0; op < 6000; op++ {
			if op%600 == 0 {
				target = []int{6, 120, 3000}[r.Intn(3)]
			}
			e.now += 0.002 * r.Float64()
			nAcks, nLosses := len(log.acks), len(log.losses)
			var wantAck bool
			var wantRTT float64
			var lost []int64
			var seq int64
			switch u := r.Float64(); {
			case u < 0.003:
				if m.timeout() {
					wantTimeouts++
				}
				e.handleRTO(0, f.rtoDeadline)
			case len(m.inflight) == 0 || len(m.inflight) < target && u < 0.6:
				for n := 1 + r.Intn(16); n > 0; n-- {
					m.send(e.now)
					e.sendPacket(0)
				}
			default:
				switch v := r.Float64(); {
				case v < 0.75: // in order, or past a gap of one or two
					seq = min(m.lowest()+int64(r.Intn(3)), m.nextSeq-1)
				case v < 0.8: // overtakes anywhere in the window
					seq = m.nextSeq - 1 - int64(r.Intn(len(m.inflight)))
				default: // stale, or anywhere ever sent
					seq = int64(r.Intn(int(m.nextSeq)))
				}
				wantRTT, lost, wantAck = m.ack(seq, e.now)
				wantLosses += len(lost)
				e.handleAck(0, seq)
			}

			if got := log.losses[nLosses:]; !slices.Equal(got, lost) {
				t.Fatalf("seed %d op %d: ack of %d signaled losses %v, oracle %v", seed, op, seq, got, lost)
			}
			switch got := log.acks[nAcks:]; {
			case !wantAck && len(got) != 0:
				t.Fatalf("seed %d op %d: ack of %d delivered for a packet no longer in flight", seed, op, seq)
			case wantAck && (len(got) != 1 || got[0] != Ack{Seq: seq, Now: e.now, RTT: wantRTT}):
				t.Fatalf("seed %d op %d: ack of %d delivered %+v, oracle RTT %v", seed, op, seq, got, wantRTT)
			}
			if log.timeouts != wantTimeouts || int(e.stats.LossesSignaled) != wantLosses {
				t.Fatalf("seed %d op %d: %d timeouts and %d losses, oracle %d and %d",
					seed, op, log.timeouts, e.stats.LossesSignaled, wantTimeouts, wantLosses)
			}
			if inflight(e) != len(m.inflight) {
				t.Fatalf("seed %d op %d: %d in flight, oracle %d", seed, op, inflight(e), len(m.inflight))
			}
			for s, sentAt := range m.inflight {
				if s < f.lo || s >= f.nextSeq || f.sentAt[f.slot(s)] != sentAt {
					t.Fatalf("seed %d op %d: seq %d sent at %v is outside window [%d, %d) or stored as %v",
						seed, op, s, sentAt, f.lo, f.nextSeq, f.sentAt[f.slot(s)])
				}
			}
		}
		if len(f.sentAt) < 16*initialWindow || wantTimeouts == 0 || wantLosses == 0 {
			t.Fatalf("seed %d: ring reached %d slots, %d timeouts, %d losses: the operations no longer grow the ring, fire RTOs and imply losses",
				seed, len(f.sentAt), wantTimeouts, wantLosses)
		}
	}
}

// inflight counts the unacknowledged packets over all of e's flows.
func inflight(e *Emulator) int {
	n := 0
	for i := range e.flows {
		n += e.flows[i].inflight()
	}
	return n
}
