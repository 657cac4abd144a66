package netem_test

import (
	"testing"

	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
)

// TestEmulatorSteadyStateAllocs pins the packet loop at zero allocations per
// 30 ms adversary interval once the in-flight window, the droptail ring, the
// event heap, the ack runs and BBR's own state have reached their working
// size — the property that makes the CC adversary's training loop cost only
// arithmetic. It holds with conditions held at Table 1's midpoints and in
// the adversary's regime: 24 Mbps with the one-way delay alternating 60 and
// 15 ms every 4 intervals, so that acks of two delay epochs, in two ack
// runs, are in flight at once.
func TestEmulatorSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay func(interval int) float64 // one-way ms
		bw    float64
	}{
		{"mid", func(int) float64 { return 37.5 }, 15},
		{"60/15 ms", func(i int) float64 { return []float64{60, 15}[i/4%2] }, 24},
	} {
		c := netem.Conditions{BandwidthMbps: tc.bw, OneWayDelayMs: tc.delay(0)}
		em := netem.New(cc.NewBBR(), netem.Config{Initial: c, QueuePackets: 128}, mathx.NewRNG(31))
		i := 0
		interval := func() {
			i++
			c.OneWayDelayMs = tc.delay(i)
			em.SetConditions(c)
			em.Run(float64(i) * 0.03)
		}
		for em.Now() < 20 { // past startup and the first ProbeRTT
			interval()
		}
		if avg := testing.AllocsPerRun(200, interval); avg != 0 {
			t.Errorf("%s: steady-state emulator allocates: %v allocs per 30 ms interval", tc.name, avg)
		}
	}
}
