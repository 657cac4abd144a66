// Golden digests of everything an emulator run tells its controllers, in
// order. The constants were recorded at commit 28de3f6, when New and NewMulti
// were two separate implementations of the same handlers, and pin the
// merge of the two: the one emulator must reproduce both callback streams bit
// for bit. They may only change with a stated, intended change of emulator
// arithmetic or event order.
package netem_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
)

// recorder forwards every callback to the wrapped controller after feeding
// its kind, flow, sequence and the bit patterns of its times into a hash
// shared by all flows of the run, so the digest also pins how the callbacks
// of different flows interleave.
type recorder struct {
	netem.CongestionController
	flow int
	h    hash.Hash64
}

func (r *recorder) put(kind byte, seq int64, now, rtt float64) {
	var b [26]byte
	b[0], b[1] = kind, byte(r.flow)
	binary.LittleEndian.PutUint64(b[2:], uint64(seq))
	binary.LittleEndian.PutUint64(b[10:], math.Float64bits(now))
	binary.LittleEndian.PutUint64(b[18:], math.Float64bits(rtt))
	r.h.Write(b[:])
}

func (r *recorder) OnPacketSent(now float64, seq int64) {
	r.put('S', seq, now, 0)
	r.CongestionController.OnPacketSent(now, seq)
}

func (r *recorder) OnAck(a netem.Ack) {
	r.put('A', a.Seq, a.Now, a.RTT)
	r.CongestionController.OnAck(a)
}

func (r *recorder) OnLoss(now float64, seq int64) {
	r.put('L', seq, now, 0)
	r.CongestionController.OnLoss(now, seq)
}

func (r *recorder) OnTimeout(now float64) {
	r.put('T', 0, now, 0)
	r.CongestionController.OnTimeout(now)
}

// goldenSchedule is a link whose every parameter moves mid-run, stepped in
// the adversary's 30 ms intervals: a lossless start (slow start overruns the
// droptail queue), a lossy bandwidth cut, a delay rise, a two-second blackout
// (only the RTO can clear the window), then a delay collapse that lets late
// acks overtake early ones.
var goldenSchedule = []struct {
	steps int
	c     netem.Conditions
}{
	{150, netem.Conditions{BandwidthMbps: 8, OneWayDelayMs: 20, LossRate: 0}},
	{150, netem.Conditions{BandwidthMbps: 3, OneWayDelayMs: 20, LossRate: 0.02}},
	{150, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 60, LossRate: 0.01}},
	{70, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 60, LossRate: 1}},
	{150, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 5, LossRate: 0.05}},
	{230, netem.Conditions{BandwidthMbps: 6, OneWayDelayMs: 30, LossRate: 0.01}},
}

// goldenRun drives the controllers over goldenSchedule — through New when
// multi is false, through NewMulti otherwise — and returns the digest of the
// callback stream followed by the final Stats and per-flow delivered bits.
func goldenRun(t *testing.T, multi bool, mk []func() netem.CongestionController) uint64 {
	t.Helper()
	h := fnv.New64a()
	ccs := make([]netem.CongestionController, len(mk))
	for i, f := range mk {
		ccs[i] = &recorder{CongestionController: f(), flow: i, h: h}
	}
	cfg := netem.Config{Initial: goldenSchedule[0].c, QueuePackets: 32}
	var em *netem.Emulator
	if multi {
		em = netem.NewMulti(ccs, cfg, mathx.NewRNG(2024))
	} else {
		em = netem.New(ccs[0], cfg, mathx.NewRNG(2024))
	}
	step := 0
	for _, seg := range goldenSchedule {
		em.SetConditions(seg.c)
		for end := step + seg.steps; step < end; {
			step++
			em.Run(float64(step) * 0.03)
		}
	}
	st := em.Stats()
	if st.LossesSignaled == 0 || st.Timeouts == 0 || st.DroppedTail == 0 {
		t.Errorf("schedule no longer exercises gap detection, RTO and droptail: %+v", st)
	}
	final := []float64{
		float64(st.Sent), float64(st.DeliveredPkts), st.DeliveredBits, float64(st.DroppedRandom),
		float64(st.DroppedTail), float64(st.LossesSignaled), float64(st.Timeouts),
	}
	for i := range ccs {
		final = append(final, em.FlowDeliveredBits(i))
	}
	for _, v := range final {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	return h.Sum64()
}

func newReno() netem.CongestionController  { return cc.NewReno() }
func newCubic() netem.CongestionController { return cc.NewCubic() }
func newBBR() netem.CongestionController   { return cc.NewBBR() }
func newCopa() netem.CongestionController  { return cc.NewCopa() }

func TestGoldenCallbackStream(t *testing.T) {
	for _, tc := range []struct {
		name  string
		multi bool
		mk    []func() netem.CongestionController
		want  uint64
	}{
		{"New/bbr", false, []func() netem.CongestionController{newBBR}, 0xa5a4019cd7da7d11},
		{"New/cubic", false, []func() netem.CongestionController{newCubic}, 0x49251b92f8ba6f8e},
		{"New/reno", false, []func() netem.CongestionController{newReno}, 0x08ef1e76e92ec8cf},
		{"NewMulti/cubic+bbr", true, []func() netem.CongestionController{newCubic, newBBR}, 0x542903104f074d82},
		{"NewMulti/cubic+reno+bbr+copa", true, []func() netem.CongestionController{newCubic, newReno, newBBR, newCopa}, 0x94a53933a9b665da},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenRun(t, tc.multi, tc.mk); got != tc.want {
				t.Errorf("digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

// TestMultiSingleFlowMatchesEmulator: New(cc) is NewMulti([]{cc}) — same
// callbacks, same times, same counters, not merely similar throughput.
func TestMultiSingleFlowMatchesEmulator(t *testing.T) {
	for _, mk := range []func() netem.CongestionController{newBBR, newCubic, newReno} {
		one := []func() netem.CongestionController{mk}
		if a, b := goldenRun(t, false, one), goldenRun(t, true, one); a != b {
			t.Errorf("New digest %#016x, one-flow NewMulti digest %#016x", a, b)
		}
	}
}
