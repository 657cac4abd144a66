package netem_test

import (
	"testing"

	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
)

// TestEmulatorSteadyStateAllocs pins the packet loop at zero allocations per
// 30 ms adversary interval once the in-flight window, the droptail ring, the
// event heap and BBR's own state have reached their working size — the
// property that makes the CC adversary's training loop cost only arithmetic.
func TestEmulatorSteadyStateAllocs(t *testing.T) {
	mid := netem.Conditions{BandwidthMbps: 15, OneWayDelayMs: 37.5}
	em := netem.New(cc.NewBBR(), netem.Config{Initial: mid, QueuePackets: 128}, mathx.NewRNG(31))
	now := 0.0
	interval := func() {
		now += 0.03
		em.Run(now)
	}
	for now < 20 { // past startup and the first ProbeRTT
		interval()
	}
	if avg := testing.AllocsPerRun(200, interval); avg != 0 {
		t.Fatalf("steady-state emulator allocates: %v allocs per 30 ms interval", avg)
	}
}
