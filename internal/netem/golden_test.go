// Golden digests of everything an emulator run tells its controllers, in
// order. The constants were recorded at commit 28de3f6, when New and NewMulti
// were two separate implementations of the same handlers, and pin the
// merge of the two: the one emulator must reproduce both callback streams bit
// for bit. The two adversary-regime rows were recorded at commit 648c77f,
// while the in-flight set was still a map and the droptail queue a
// resliced slice, and pin the seq-indexed window and the queue ring that
// replaced them. The fixed-RTO and three bufferbloat rows were recorded at
// commit df31532, while every RTO timer was an event on the packet heap,
// and pin the per-flow timer queues that replaced them. The constants may
// only change with a stated, intended change of emulator arithmetic or event
// order.
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
// of different flows interleave. It also keeps the flow's in-flight count as
// the callbacks imply it, that count's peak, and the largest ack RTT.
type recorder struct {
	netem.CongestionController
	flow           int
	h              hash.Hash64
	inflight, peak int
	maxRTT         float64
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
	r.inflight++
	r.peak = max(r.peak, r.inflight)
	r.CongestionController.OnPacketSent(now, seq)
}

func (r *recorder) OnAck(a netem.Ack) {
	r.put('A', a.Seq, a.Now, a.RTT)
	r.inflight--
	r.maxRTT = max(r.maxRTT, a.RTT)
	r.CongestionController.OnAck(a)
}

func (r *recorder) OnLoss(now float64, seq int64) {
	r.put('L', seq, now, 0)
	r.inflight--
	r.CongestionController.OnLoss(now, seq)
}

func (r *recorder) OnTimeout(now float64) {
	r.put('T', 0, now, 0)
	r.inflight = 0
	r.CongestionController.OnTimeout(now)
}

type goldenSegment struct {
	steps int
	c     netem.Conditions
}

// runPeaks are the extremes a run's callbacks reached over all its flows.
type runPeaks struct {
	inflight int     // largest in-flight count of any one flow
	rtt      float64 // largest ack RTT, seconds
}

// goldenScenario is a link schedule, stepped in the adversary's 30 ms
// intervals, over a droptail queue of the given capacity and with the given
// Config.RTOSeconds (0: the adaptive RTO). covers reports whether a run's
// final counters and peaks still exercise the paths the scenario exists to
// pin.
type goldenScenario struct {
	queue    int
	rto      float64
	schedule []goldenSegment
	covers   func(st netem.Stats, p runPeaks) bool
}

// goldenSchedule is a link whose every parameter moves mid-run: a lossless
// start (slow start overruns the droptail queue), a lossy bandwidth cut, a
// delay rise, a two-second blackout (only the RTO can clear the window), then
// a delay collapse that lets late acks overtake early ones.
var goldenSchedule = goldenScenario{
	queue: 32,
	schedule: []goldenSegment{
		{150, netem.Conditions{BandwidthMbps: 8, OneWayDelayMs: 20, LossRate: 0}},
		{150, netem.Conditions{BandwidthMbps: 3, OneWayDelayMs: 20, LossRate: 0.02}},
		{150, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 60, LossRate: 0.01}},
		{70, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 60, LossRate: 1}},
		{150, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 5, LossRate: 0.05}},
		{230, netem.Conditions{BandwidthMbps: 6, OneWayDelayMs: 30, LossRate: 0.01}},
	},
	covers: func(st netem.Stats, _ runPeaks) bool {
		return st.LossesSignaled > 0 && st.Timeouts > 0 && st.DroppedTail > 0
	},
}

// fixedRTO is goldenSchedule under a fixed 0.3 s RTO, below the adaptive
// RTO's 1 s floor: timers fire while the link is merely slow, and flows
// armed at the same instant hold timers due at the same instant.
var fixedRTO = func() goldenScenario {
	sc := goldenSchedule
	sc.rto = 0.3
	return sc
}()

// adversaryRegime is the CC adversary's link: a 128-packet queue at
// 24 Mbps and 60 ms one-way — a bandwidth-delay product of 240 packets, which
// BBR's window climbs past 256 within the first 12 s while the queue fills
// and drains many times over — then a collapse to 15 ms under light loss,
// which lets late acks overtake early ones with a deep window outstanding.
var adversaryRegime = goldenScenario{
	queue: 128,
	schedule: []goldenSegment{
		{400, netem.Conditions{BandwidthMbps: 24, OneWayDelayMs: 60, LossRate: 0}},
		{200, netem.Conditions{BandwidthMbps: 24, OneWayDelayMs: 15, LossRate: 0.01}},
	},
	covers: func(st netem.Stats, p runPeaks) bool {
		return st.LossesSignaled > 0 && p.inflight > 256
	},
}

// bufferbloat is a slow link behind a deep queue: 256 packets at 0.5–1 Mbps
// hold 3–6 s of data, so ack RTTs pass 1 s and the adaptive RTO leaves its
// 1 s floor. Blackouts make those long timeouts fire, and jumps to a fast,
// short link drain the queue, so srtt — and with it the RTO — shrinks below
// deadlines already armed.
var bufferbloat = goldenScenario{
	queue: 256,
	schedule: []goldenSegment{
		{200, netem.Conditions{BandwidthMbps: 8, OneWayDelayMs: 40, LossRate: 0}},
		{300, netem.Conditions{BandwidthMbps: 0.5, OneWayDelayMs: 40, LossRate: 0}},
		{100, netem.Conditions{BandwidthMbps: 0.5, OneWayDelayMs: 40, LossRate: 0.01}},
		{200, netem.Conditions{BandwidthMbps: 0.5, OneWayDelayMs: 40, LossRate: 1}},
		{300, netem.Conditions{BandwidthMbps: 1, OneWayDelayMs: 40, LossRate: 0}},
		{150, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 5, LossRate: 0.01}},
		{70, netem.Conditions{BandwidthMbps: 12, OneWayDelayMs: 5, LossRate: 1}},
		{200, netem.Conditions{BandwidthMbps: 0.5, OneWayDelayMs: 60, LossRate: 0}},
		{150, netem.Conditions{BandwidthMbps: 0.5, OneWayDelayMs: 60, LossRate: 1}},
		{200, netem.Conditions{BandwidthMbps: 1, OneWayDelayMs: 20, LossRate: 0.01}},
	},
	covers: func(st netem.Stats, p runPeaks) bool {
		return st.Timeouts > 0 && p.rtt > 1
	},
}

// goldenRun drives the controllers over the scenario — through New when
// multi is false, through NewMulti otherwise — and returns the digest of the
// callback stream followed by the final Stats and per-flow delivered bits.
func goldenRun(t *testing.T, sc goldenScenario, multi bool, mk []func() netem.CongestionController) uint64 {
	t.Helper()
	h := fnv.New64a()
	ccs := make([]netem.CongestionController, len(mk))
	recs := make([]*recorder, len(mk))
	for i, f := range mk {
		recs[i] = &recorder{CongestionController: f(), flow: i, h: h}
		ccs[i] = recs[i]
	}
	cfg := netem.Config{Initial: sc.schedule[0].c, QueuePackets: sc.queue, RTOSeconds: sc.rto}
	var em *netem.Emulator
	if multi {
		em = netem.NewMulti(ccs, cfg, mathx.NewRNG(2024))
	} else {
		em = netem.New(ccs[0], cfg, mathx.NewRNG(2024))
	}
	step := 0
	for _, seg := range sc.schedule {
		em.SetConditions(seg.c)
		for end := step + seg.steps; step < end; {
			step++
			em.Run(float64(step) * 0.03)
		}
	}
	st, peaks := em.Stats(), runPeaks{}
	for _, r := range recs {
		peaks.inflight = max(peaks.inflight, r.peak)
		peaks.rtt = max(peaks.rtt, r.maxRTT)
	}
	if !sc.covers(st, peaks) {
		t.Errorf("scenario no longer exercises the paths it pins: %+v, peaks %+v", st, peaks)
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
		sc    goldenScenario
		multi bool
		mk    []func() netem.CongestionController
		want  uint64
	}{
		{"New/bbr", goldenSchedule, false, []func() netem.CongestionController{newBBR}, 0xa5a4019cd7da7d11},
		{"New/cubic", goldenSchedule, false, []func() netem.CongestionController{newCubic}, 0x49251b92f8ba6f8e},
		{"New/reno", goldenSchedule, false, []func() netem.CongestionController{newReno}, 0x08ef1e76e92ec8cf},
		{"NewMulti/cubic+bbr", goldenSchedule, true, []func() netem.CongestionController{newCubic, newBBR}, 0x542903104f074d82},
		{"NewMulti/cubic+reno+bbr+copa", goldenSchedule, true, []func() netem.CongestionController{newCubic, newReno, newBBR, newCopa}, 0x94a53933a9b665da},
		{"adversary/New/bbr", adversaryRegime, false, []func() netem.CongestionController{newBBR}, 0x7a1c406fdceeb2f1},
		{"adversary/NewMulti/cubic+bbr", adversaryRegime, true, []func() netem.CongestionController{newCubic, newBBR}, 0xf971f015753ba297},
		{"fixedRTO/NewMulti/cubic+bbr", fixedRTO, true, []func() netem.CongestionController{newCubic, newBBR}, 0xc41fbab01485c2ec},
		{"bufferbloat/New/bbr", bufferbloat, false, []func() netem.CongestionController{newBBR}, 0x4283b3b09678e127},
		{"bufferbloat/New/cubic", bufferbloat, false, []func() netem.CongestionController{newCubic}, 0x0edc1e1da8de9b0f},
		{"bufferbloat/NewMulti/cubic+bbr", bufferbloat, true, []func() netem.CongestionController{newCubic, newBBR}, 0x259db193ab17f0dc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenRun(t, tc.sc, tc.multi, tc.mk); got != tc.want {
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
		if a, b := goldenRun(t, goldenSchedule, false, one), goldenRun(t, goldenSchedule, true, one); a != b {
			t.Errorf("New digest %#016x, one-flow NewMulti digest %#016x", a, b)
		}
	}
}
