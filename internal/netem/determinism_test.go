// Cross-run determinism suite for the packet emulator: with losses
// enabled, loss signaling once iterated an in-flight map in Go's randomized
// order, so order-sensitive controllers (CUBIC's epoch resets, BBR's mode
// switches) could diverge between identically-seeded runs. Implied losses
// are now the ascending prefix of each flow's [lo, nextSeq) window. These
// tests pin the outcome: same seed, same controllers, twice —
// bitwise-identical stats, per-flow delivered bits, and fairness.
package netem_test

import (
	"reflect"
	"testing"

	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/stats"
)

const lossyRate = 0.05

func lossyConfig() netem.Config {
	return netem.Config{
		Initial: netem.Conditions{
			BandwidthMbps: 8,
			OneWayDelayMs: 20,
			LossRate:      lossyRate, // high enough that every run signals implied losses
		},
		QueuePackets: 32,
	}
}

// TestEmulatorCrossRunDeterminism pins the single-flow case: two fresh
// runs with the same seed must agree exactly.
func TestEmulatorCrossRunDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() netem.CongestionController
	}{
		{"reno", func() netem.CongestionController { return cc.NewReno() }},
		{"cubic", func() netem.CongestionController { return cc.NewCubic() }},
		{"bbr", func() netem.CongestionController { return cc.NewBBR() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() netem.Stats {
				e := netem.New(tc.mk(), lossyConfig(), mathx.NewRNG(1234))
				e.Run(60)
				return e.Stats()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("same-seed runs diverged:\n%+v\nvs\n%+v", a, b)
			}
			if a.LossesSignaled == 0 {
				t.Error("no implied losses signaled; the scenario no longer exercises the ordering path")
			}
		})
	}
}

// multiRun drives three heterogeneous flows over one lossy bottleneck and
// returns everything order-sensitive state could perturb.
type multiOutcome struct {
	Stats    netem.Stats
	FlowBits []float64
	Jain     float64
}

func multiRun(seed uint64) multiOutcome {
	ccs := []netem.CongestionController{cc.NewCubic(), cc.NewReno(), cc.NewBBR()}
	m := netem.NewMulti(ccs, lossyConfig(), mathx.NewRNG(seed))
	m.Run(90)
	bits := make([]float64, len(ccs))
	for i := range bits {
		bits[i] = m.FlowDeliveredBits(i)
	}
	return multiOutcome{Stats: m.Stats(), FlowBits: bits, Jain: stats.Jain(bits)}
}

// TestMultiFlowCrossRunDeterminism pins the shared-bottleneck case under
// loss: identical Stats, per-flow delivered bits, and Jain fairness
// across same-seed runs.
func TestMultiFlowCrossRunDeterminism(t *testing.T) {
	a, b := multiRun(77), multiRun(77)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed multi-flow runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Stats.LossesSignaled == 0 {
		t.Error("no implied losses signaled; the scenario no longer exercises the ordering path")
	}
	if c := multiRun(78); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical outcomes")
	}
}

// windowOnlyCC exposes a congestion window but no pacing rate — the shape
// of controller that would crawl at FallbackPacingBps without the
// window-driven fallback.
type windowOnlyCC struct{ cwnd float64 }

func (w *windowOnlyCC) CWND(float64) float64        { return w.cwnd }
func (w *windowOnlyCC) PacingRate(float64) float64  { return 0 }
func (w *windowOnlyCC) OnPacketSent(float64, int64) {}
func (w *windowOnlyCC) OnAck(netem.Ack)             {}
func (w *windowOnlyCC) OnLoss(float64, int64)       {}
func (w *windowOnlyCC) OnTimeout(float64)           {}

// TestZeroPacingProgress: a zero-pacing controller must still make
// window-driven progress, however the emulator was built. With cwnd=10 over a
// 40ms RTT the flow should deliver hundreds of packets in 20 virtual seconds;
// FallbackPacingBps alone paces it at one packet per second (~20 packets).
func TestZeroPacingProgress(t *testing.T) {
	cfg := netem.Config{Initial: netem.Conditions{BandwidthMbps: 10, OneWayDelayMs: 20}}
	for _, tc := range []struct {
		name string
		em   *netem.Emulator
	}{
		{"New", netem.New(&windowOnlyCC{cwnd: 10}, cfg, mathx.NewRNG(5))},
		{"NewMulti", netem.NewMulti([]netem.CongestionController{&windowOnlyCC{cwnd: 10}, &windowOnlyCC{cwnd: 10}}, cfg, mathx.NewRNG(5))},
	} {
		tc.em.Run(20)
		if got := tc.em.Stats().DeliveredPkts; got < 100 {
			t.Errorf("%s: zero-pacing flows delivered %d packets in 20s, want >= 100 (window-driven pacing)", tc.name, got)
		}
	}
}
