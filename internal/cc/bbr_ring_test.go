package cc

import (
	"reflect"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/netem"
)

// mapBBR is BBR as it kept its packets in flight before the ring: a map from
// seq to send state, with len(map) the in-flight count. It runs BBR's own
// control loop (onDelivery) on that map, and is the oracle the ring is
// checked against.
type mapBBR struct {
	*BBR
	sentAt map[int64]pktState
}

func (m *mapBBR) OnPacketSent(now float64, seq int64) {
	m.sentAt[seq] = pktState{sentAt: now, deliveredAtSend: m.deliveredBits}
}

func (m *mapBBR) OnAck(a netem.Ack) {
	st, ok := m.sentAt[a.Seq]
	if !ok {
		return
	}
	delete(m.sentAt, a.Seq)
	m.onDelivery(a, st, len(m.sentAt))
}

func (m *mapBBR) OnLoss(_ float64, seq int64) { delete(m.sentAt, seq) }
func (m *mapBBR) OnTimeout(float64)           { clear(m.sentAt) }

// ringLookup returns seq's send state as the ring holds it.
func ringLookup(r *sentRing, seq int64) (pktState, bool) {
	if seq < r.lo || seq >= r.hi {
		return pktState{}, false
	}
	st := *r.slot(seq)
	return st, st.live
}

// TestBBRRingMatchesMapOracle drives a BBR and the map oracle through the
// same seeded calls of OnPacketSent, OnAck, OnLoss and OnTimeout: bursts of
// sends with gaps in their seqs; acks and losses in order, past a gap,
// anywhere in the window, of seqs already acked or lost, of seqs never sent
// and of seqs not sent yet; and timeouts with packets in flight. Phases alternate between
// shallow windows and windows past 64, 256 and 1024 packets. After every
// call the two hold the same packets with the same send state, and so the
// same in-flight count and rate sample, and agree on State, PacingRate,
// CWND, MinRTT and the rest of the control state.
func TestBBRRingMatchesMapOracle(t *testing.T) {
	var found, missed, gaps, timeouts int
	states := map[string]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		r := mathx.NewRNG(seed)
		b := NewBBR()
		m := &mapBBR{BBR: NewBBR(), sentAt: map[int64]pktState{}}
		var next int64 // the next seq to send, with no gap
		var now float64
		target := 0
		for op := 0; op < 8000; op++ {
			if op%500 == 0 {
				target = []int{8, 100, 400, 1500}[r.Intn(4)]
			}
			now += 0.003 * r.Float64()
			oldest := next
			for s := range m.sentAt {
				oldest = min(oldest, s)
			}
			// pick chooses the seq an ack or a loss names.
			pick := func() int64 {
				switch v := r.Float64(); {
				case v < 0.7: // in order, or past a gap of one or two
					return oldest + int64(r.Intn(3))
				case v < 0.8: // anywhere in the window
					return oldest + int64(r.Intn(int(next-oldest)+1))
				case v < 0.95: // anything ever sent, or skipped
					return int64(r.Intn(int(next) + 1))
				default: // not sent yet
					return next + int64(r.Intn(4))
				}
			}
			var seq int64
			switch u := r.Float64(); {
			case u < 0.002:
				if len(m.sentAt) > 0 {
					timeouts++
				}
				b.OnTimeout(now)
				m.OnTimeout(now)
			case len(m.sentAt) == 0 || len(m.sentAt) < target && u < 0.6:
				for n := 1 + r.Intn(16); n > 0; n-- {
					seq = next
					if r.Float64() < 0.05 {
						seq += 1 + int64(r.Intn(4))
						gaps++
					}
					next = seq + 1
					b.OnPacketSent(now, seq)
					m.OnPacketSent(now, seq)
				}
			case u < 0.7:
				seq = pick()
				b.OnLoss(now, seq)
				m.OnLoss(now, seq)
			default:
				seq = pick()
				st, ok := ringLookup(&b.sent, seq)
				want, wantOK := m.sentAt[seq]
				if ok != wantOK || ok && (st.sentAt != want.sentAt || st.deliveredAtSend != want.deliveredAtSend) {
					t.Fatalf("seed %d op %d: ack of %d finds %+v %v, oracle %+v %v", seed, op, seq, st, ok, want, wantOK)
				}
				rtt := 0.05
				if ok {
					found++
					rtt = now - st.sentAt
				} else {
					missed++
				}
				a := netem.Ack{Seq: seq, Now: now, RTT: rtt}
				b.OnAck(a)
				m.OnAck(a)
				if ok && now > st.sentAt {
					rate := (b.deliveredBits - st.deliveredAtSend) / (now - st.sentAt)
					if wantRate := (m.deliveredBits - want.deliveredAtSend) / (now - want.sentAt); rate != wantRate {
						t.Fatalf("seed %d op %d: ack of %d samples %v bit/s, oracle %v", seed, op, seq, rate, wantRate)
					}
				}
			}

			if b.sent.live != len(m.sentAt) {
				t.Fatalf("seed %d op %d (seq %d): %d in flight, oracle %d", seed, op, seq, b.sent.live, len(m.sentAt))
			}
			for s := oldest - 2; s <= next+2; s++ {
				st, ok := ringLookup(&b.sent, s)
				want, wantOK := m.sentAt[s]
				if ok != wantOK || ok && (st.sentAt != want.sentAt || st.deliveredAtSend != want.deliveredAtSend) {
					t.Fatalf("seed %d op %d: seq %d held as %+v %v, oracle %+v %v", seed, op, s, st, ok, want, wantOK)
				}
			}
			if b.State() != m.State() || b.PacingRate(now) != m.PacingRate(now) || b.CWND(now) != m.CWND(now) || b.minRTT.Value() != m.minRTT.Value() {
				t.Fatalf("seed %d op %d: %s at %v bit/s, cwnd %v, min RTT %v; oracle %s at %v bit/s, cwnd %v, min RTT %v", seed, op,
					b.State(), b.PacingRate(now), b.CWND(now), b.minRTT.Value(), m.State(), m.PacingRate(now), m.CWND(now), m.minRTT.Value())
			}
			control, oracle := *b, *m.BBR
			control.sent, oracle.sent = sentRing{}, sentRing{}
			if !reflect.DeepEqual(control, oracle) {
				t.Fatalf("seed %d op %d: control state %+v, oracle %+v", seed, op, control, oracle)
			}
			states[b.State()] = true
		}
		if len(b.sent.slots) <= 1024 {
			t.Fatalf("seed %d: ring reached %d slots: the windows no longer grow it past 1024", seed, len(b.sent.slots))
		}
	}
	t.Logf("%d acks found, %d missed, %d send gaps, %d timeouts in flight, states %v", found, missed, gaps, timeouts, states)
	if found == 0 || missed == 0 || gaps == 0 || timeouts == 0 || len(states) < 3 {
		t.Fatalf("%d acks found, %d missed, %d send gaps, %d timeouts in flight, states %v: the operations no longer exercise what they pin",
			found, missed, gaps, timeouts, states)
	}
}

// TestBBRSteadyStateAllocs pins BBR's per-packet path at zero allocations
// once its ring has reached the working window: one send and one ack, a
// window's worth apart.
func TestBBRSteadyStateAllocs(t *testing.T) {
	b := NewBBR()
	const window = 300
	var seq int64
	now := 0.0
	step := func() {
		now += 0.0005
		b.OnPacketSent(now, seq)
		if seq >= window {
			b.OnAck(netem.Ack{Seq: seq - window, Now: now, RTT: 0.15})
		}
		seq++
	}
	for seq < 4*window {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("BBR allocates %v times per send and ack", avg)
	}
}

// TestBBRRefusesNonIncreasingSeq: the ring holds a window of increasing
// send seqs, so a send that does not come after the latest one is refused
// rather than silently misfiled.
func TestBBRRefusesNonIncreasingSeq(t *testing.T) {
	b := NewBBR()
	b.OnPacketSent(0, 5)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "seq 5 after seq 5") {
			t.Fatalf("resending seq 5 panicked with %q", msg)
		}
	}()
	b.OnPacketSent(0.01, 5)
}
