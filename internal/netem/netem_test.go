package netem

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// fixedCC sends at a constant pacing rate with a huge window: a load
// generator for exercising the link itself.
type fixedCC struct {
	rateBps float64
	acks    []Ack
	losses  int
	touts   int
}

func (f *fixedCC) PacingRate(_ float64) float64    { return f.rateBps }
func (f *fixedCC) CWND(_ float64) float64          { return 1e9 }
func (f *fixedCC) OnPacketSent(_ float64, _ int64) {}
func (f *fixedCC) OnAck(a Ack)                     { f.acks = append(f.acks, a) }
func (f *fixedCC) OnLoss(_ float64, _ int64)       { f.losses++ }
func (f *fixedCC) OnTimeout(_ float64)             { f.touts++ }

func cfg(bw, owdMs, loss float64, queue int) Config {
	return Config{
		Initial:      Conditions{BandwidthMbps: bw, OneWayDelayMs: owdMs, LossRate: loss},
		QueuePackets: queue,
	}
}

func TestDeliveryAtLinkRate(t *testing.T) {
	// Send at 20 Mbps into a 10 Mbps link for 10 s: delivery must be
	// ~10 Mbps (the rest dropped at the tail).
	f := &fixedCC{rateBps: 20e6}
	e := New(f, cfg(10, 10, 0, 64), mathx.NewRNG(1))
	e.Run(10)
	st := e.Stats()
	rate := st.DeliveredBits / 10 / 1e6
	if math.Abs(rate-10) > 0.5 {
		t.Fatalf("delivered %v Mbps on a 10 Mbps link", rate)
	}
	if st.DroppedTail == 0 {
		t.Fatal("overdriven droptail queue never dropped")
	}
}

func TestUnderloadNoDrops(t *testing.T) {
	f := &fixedCC{rateBps: 5e6}
	e := New(f, cfg(10, 10, 0, 64), mathx.NewRNG(2))
	e.Run(10)
	st := e.Stats()
	if st.DroppedTail != 0 || st.DroppedRandom != 0 {
		t.Fatalf("drops on an underloaded lossless link: %+v", st)
	}
	rate := st.DeliveredBits / 10 / 1e6
	if math.Abs(rate-5) > 0.3 {
		t.Fatalf("delivered %v Mbps, want ~5", rate)
	}
}

// TestPacketConservation states the link's two invariants under conditions
// that change every 20 intervals, for one flow and for three: every sent
// packet is delivered, dropped at the link entrance or in the queue — exactly,
// at every instant — and the link never delivers more than its bandwidth
// integrated over time. The integral's slack is one packet, plus one per
// bandwidth cut: a packet in service when the rate is cut finishes at the old
// rate.
func TestPacketConservation(t *testing.T) {
	for _, flows := range []int{1, 3} {
		ccs := make([]CongestionController, flows)
		for i := range ccs {
			ccs[i] = &fixedCC{rateBps: 15e6}
		}
		c := Conditions{BandwidthMbps: 10, OneWayDelayMs: 20, LossRate: 0.05}
		e := NewMulti(ccs, Config{Initial: c, QueuePackets: 32}, mathx.NewRNG(3))
		r := mathx.NewRNG(uint64(flows))
		capacityBits, cuts := 0.0, 0
		for step := 1; step <= 600; step++ {
			if step%20 == 0 {
				next := Conditions{BandwidthMbps: 2 + 18*r.Float64(), OneWayDelayMs: 5 + 40*r.Float64(), LossRate: 0.2 * r.Float64()}
				if next.BandwidthMbps < c.BandwidthMbps {
					cuts++
				}
				c = next
				e.SetConditions(c)
			}
			before := e.Now()
			e.Run(float64(step) * 0.03)
			capacityBits += e.cond.BandwidthMbps * 1e6 * (e.Now() - before)

			st := e.Stats()
			if got := st.DeliveredPkts + st.DroppedRandom + st.DroppedTail + int64(e.queueLen); got != st.Sent {
				t.Fatalf("%d flows, step %d: delivered+dropped+queued = %d, sent = %d (%+v, queue %d)",
					flows, step, got, st.Sent, st, e.queueLen)
			}
			if limit := capacityBits + PacketBits*float64(1+cuts); st.DeliveredBits > limit {
				t.Fatalf("%d flows, step %d: delivered %v bits, link capacity so far %v (+%d packets slack)",
					flows, step, st.DeliveredBits, capacityBits, 1+cuts)
			}
			perFlow := 0.0
			for i := range ccs {
				perFlow += e.FlowDeliveredBits(i)
			}
			if perFlow != st.DeliveredBits {
				t.Fatalf("%d flows, step %d: per-flow bits sum to %v, link delivered %v", flows, step, perFlow, st.DeliveredBits)
			}
		}
		if st := e.Stats(); st.DroppedTail == 0 || st.DroppedRandom == 0 || st.DeliveredBits < 0.5*capacityBits {
			t.Fatalf("%d flows: schedule does not load the link: %+v of %v bits capacity", flows, st, capacityBits)
		}
	}
}

func TestRTTMatchesPropagationWhenIdle(t *testing.T) {
	// Very low rate: no queueing, RTT must be exactly 2*OWD.
	f := &fixedCC{rateBps: 0.5e6}
	e := New(f, cfg(10, 25, 0, 64), mathx.NewRNG(4))
	e.Run(5)
	if len(f.acks) == 0 {
		t.Fatal("no acks")
	}
	for _, a := range f.acks {
		// RTT = service time + 2*owd; service of 12 kbit at 10 Mbps = 1.2 ms
		want := 0.0012 + 0.05
		if math.Abs(a.RTT-want) > 0.002 {
			t.Fatalf("RTT %v, want ~%v", a.RTT, want)
		}
	}
}

func TestQueueingDelayGrowsUnderOverload(t *testing.T) {
	f := &fixedCC{rateBps: 30e6}
	e := New(f, cfg(10, 10, 0, 1000), mathx.NewRNG(5))
	e.Run(0.2)
	early := e.QueueingDelay()
	e.Run(1.0)
	late := e.QueueingDelay()
	if late <= early {
		t.Fatalf("queueing delay did not grow: %v -> %v", early, late)
	}
}

func TestRandomLossRate(t *testing.T) {
	f := &fixedCC{rateBps: 8e6}
	e := New(f, cfg(10, 5, 0.1, 64), mathx.NewRNG(6))
	e.Run(30)
	st := e.Stats()
	got := float64(st.DroppedRandom) / float64(st.Sent)
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("random loss rate %v, want ~0.1", got)
	}
}

func TestGapDetectionSignalsLoss(t *testing.T) {
	f := &fixedCC{rateBps: 8e6}
	e := New(f, cfg(10, 5, 0.2, 64), mathx.NewRNG(7))
	e.Run(10)
	if f.losses == 0 {
		t.Fatal("no losses signaled despite 20% drop rate")
	}
	st := e.Stats()
	if st.LossesSignaled != int64(f.losses) {
		t.Fatalf("stats (%d) and callback (%d) disagree", st.LossesSignaled, f.losses)
	}
}

func TestRTOFiresUnderTotalLoss(t *testing.T) {
	// cwnd-limited sender with 100% loss: only an RTO can clear inflight.
	f := &fixedCC{rateBps: 8e6}
	e := New(f, Config{
		Initial:      Conditions{BandwidthMbps: 10, OneWayDelayMs: 10, LossRate: 1.0},
		QueuePackets: 64,
		RTOSeconds:   0.5,
	}, mathx.NewRNG(8))
	e.Run(5)
	if f.touts < 5 {
		t.Fatalf("RTO fired %d times under 100%% loss over 5s, want >= 5", f.touts)
	}
	// Each timeout clears the outstanding data, so inflight stays bounded
	// by roughly one RTO window of sends (~333 packets at 8 Mbps, 0.5 s).
	if inflight(e) > 1000 {
		t.Fatalf("inflight %d not bounded by timeouts", inflight(e))
	}
}

func TestSetConditionsTakesEffect(t *testing.T) {
	f := &fixedCC{rateBps: 50e6}
	e := New(f, cfg(20, 5, 0, 256), mathx.NewRNG(9))
	e.Run(2)
	iv := e.BeginInterval()
	e.Run(3)
	fast := e.ThroughputMbps(iv)
	e.SetConditions(Conditions{BandwidthMbps: 5, OneWayDelayMs: 5, LossRate: 0})
	e.Run(4) // let the queue settle
	iv = e.BeginInterval()
	e.Run(7)
	slow := e.ThroughputMbps(iv)
	if math.Abs(fast-20) > 1.5 {
		t.Fatalf("fast phase %v Mbps, want ~20", fast)
	}
	if math.Abs(slow-5) > 0.5 {
		t.Fatalf("slow phase %v Mbps, want ~5", slow)
	}
}

func TestSetConditionsRejectsInvalid(t *testing.T) {
	f := &fixedCC{rateBps: 1e6}
	e := New(f, cfg(10, 5, 0, 64), mathx.NewRNG(10))
	for _, c := range []Conditions{
		{BandwidthMbps: 0, OneWayDelayMs: 5},
		{BandwidthMbps: 5, OneWayDelayMs: -1},
		{BandwidthMbps: 5, OneWayDelayMs: 5, LossRate: 1.5},
		{BandwidthMbps: math.NaN(), OneWayDelayMs: 5},
		{BandwidthMbps: math.Inf(1), OneWayDelayMs: 5},
		{BandwidthMbps: 5, OneWayDelayMs: math.NaN()},
		{BandwidthMbps: 5, OneWayDelayMs: math.Inf(1)},
		{BandwidthMbps: 5, OneWayDelayMs: 5, LossRate: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("conditions %+v accepted", c)
				}
			}()
			e.SetConditions(c)
		}()
	}
}

func TestUtilizationBounded(t *testing.T) {
	f := &fixedCC{rateBps: 100e6}
	e := New(f, cfg(10, 5, 0, 64), mathx.NewRNG(11))
	now := 0.0
	for i := 0; i < 100; i++ {
		iv := e.BeginInterval()
		now += 0.03
		e.Run(now)
		u := e.Utilization(iv, 10)
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of [0,1]", u)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Stats {
		f := &fixedCC{rateBps: 12e6}
		e := New(f, cfg(10, 15, 0.03, 48), mathx.NewRNG(42))
		e.Run(10)
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("emulator not deterministic: %+v vs %+v", a, b)
	}
}

func TestVirtualTimeAdvancesExactly(t *testing.T) {
	f := &fixedCC{rateBps: 1e6}
	e := New(f, cfg(10, 5, 0, 64), mathx.NewRNG(12))
	e.Run(1.234)
	if e.Now() != 1.234 {
		t.Fatalf("Now() = %v", e.Now())
	}
}

func TestConservationProperty(t *testing.T) {
	// Delivered + dropped never exceeds sent, under arbitrary load, loss
	// and queue sizes.
	f := func(seed uint64) bool {
		r := mathxNew(seed)
		load := 2e6 + 30e6*r.Float64()
		loss := 0.3 * r.Float64()
		queue := 8 + r.Intn(120)
		fc := &fixedCC{rateBps: load}
		e := New(fc, Config{
			Initial:      Conditions{BandwidthMbps: 4 + 16*r.Float64(), OneWayDelayMs: 5 + 40*r.Float64(), LossRate: loss},
			QueuePackets: queue,
		}, mathxNew(seed+1))
		e.Run(5)
		st := e.Stats()
		return st.DeliveredPkts+st.DroppedRandom+st.DroppedTail <= st.Sent
	}
	if err := quickCheck(f, 25); err != nil {
		t.Fatal(err)
	}
}

func TestAcksArriveInOrder(t *testing.T) {
	// With constant conditions the link is FIFO: ack sequence numbers must
	// be strictly increasing.
	fc := &fixedCC{rateBps: 8e6}
	e := New(fc, cfg(10, 20, 0, 64), mathxNew(99))
	e.Run(5)
	for i := 1; i < len(fc.acks); i++ {
		if fc.acks[i].Seq <= fc.acks[i-1].Seq {
			t.Fatalf("ack reordering: %d after %d", fc.acks[i].Seq, fc.acks[i-1].Seq)
		}
		if fc.acks[i].Now < fc.acks[i-1].Now {
			t.Fatal("ack times not monotone")
		}
	}
}

func TestLatencyJitterReordering(t *testing.T) {
	// Dropping the one-way delay sharply can make a late-sent packet's ack
	// overtake an earlier one; the emulator must treat the overtaken
	// packet as lost (gap detection) and never double-deliver its ack.
	f := &fixedCC{rateBps: 4e6}
	e := New(f, cfg(10, 60, 0, 256), mathxNew(101))
	e.Run(1)
	e.SetConditions(Conditions{BandwidthMbps: 10, OneWayDelayMs: 1, LossRate: 0})
	e.Run(2)
	seen := map[int64]int{}
	for _, a := range f.acks {
		seen[a.Seq]++
		if seen[a.Seq] > 1 {
			t.Fatalf("ack for %d delivered twice", a.Seq)
		}
	}
	// Total accounting: every sent packet is acked or loss-signaled or
	// still in flight.
	st := e.Stats()
	if int64(len(f.acks))+st.LossesSignaled+int64(inflight(e)) < st.Sent-int64(e.queueLen)-200 {
		t.Fatalf("packets unaccounted: acks=%d losses=%d inflight=%d sent=%d",
			len(f.acks), st.LossesSignaled, inflight(e), st.Sent)
	}
}

func TestConditionsChangeWhileQueueFull(t *testing.T) {
	f := &fixedCC{rateBps: 30e6}
	e := New(f, cfg(5, 10, 0, 32), mathxNew(102))
	e.Run(2) // queue saturated
	if e.queueLen == 0 {
		t.Fatal("queue not saturated")
	}
	// Slashing bandwidth with a full queue must not panic or lose packets
	// from the queue; the backlog just drains slower.
	e.SetConditions(Conditions{BandwidthMbps: 1, OneWayDelayMs: 10, LossRate: 0})
	before := e.Stats().DeliveredPkts
	e.Run(2.5)
	after := e.Stats().DeliveredPkts
	// 0.5 s at 1 Mbps ≈ 41 packets.
	if d := after - before; d < 30 || d > 55 {
		t.Fatalf("drained %d packets in 0.5s at 1 Mbps, want ~41", d)
	}
}
