package core

import (
	"fmt"
	"math"
	"testing"

	"advnet/internal/mathx"
)

// TestDecodedActionsStayInTable1 is the action-space property of the CC
// adversary: whatever raw vector the policy emits — seeded values across
// [−1e6, 1e6], spread over every magnitude, and ±Inf — the link conditions
// CCEnv decodes and applies stay inside Table 1 (bandwidth 6–24 Mbps, one-way latency 15–60 ms, loss 0–0.10).
func TestDecodedActionsStayInTable1(t *testing.T) {
	inf := math.Inf(1)
	raws := [][]float64{
		{inf, inf, inf}, {-inf, -inf, -inf}, {inf, -inf, inf}, {-inf, inf, -inf},
		{1e6, -1e6, 1e6}, {-1e6, 1e6, -1e6}, {0, 0, 0},
	}
	rng := mathx.NewRNG(23)
	for i := 0; i < 300; i++ {
		raw := make([]float64, 3)
		for j := range raw {
			if i%2 == 0 {
				raw[j] = rng.Uniform(-1e6, 1e6)
			} else { // |x| log-uniform in [1e-3, 1e6], random sign
				raw[j] = math.Pow(10, rng.Uniform(-3, 6))
				if rng.Float64() < 0.5 {
					raw[j] = -raw[j]
				}
			}
		}
		raws = append(raws, raw)
	}
	inTable1 := func(a CCAction) error {
		switch {
		case !(a.BandwidthMbps >= 6 && a.BandwidthMbps <= 24):
			return fmt.Errorf("bandwidth %v Mbps outside [6, 24]", a.BandwidthMbps)
		case !(a.LatencyMs >= 15 && a.LatencyMs <= 60):
			return fmt.Errorf("one-way latency %v ms outside [15, 60]", a.LatencyMs)
		case !(a.LossRate >= 0 && a.LossRate <= 0.10):
			return fmt.Errorf("loss %v outside [0, 0.10]", a.LossRate)
		}
		return nil
	}

	cfg := DefaultCCAdversaryConfig()
	ccEnv := NewCCEnv(newBBRf, cfg, mathx.NewRNG(24))
	ccEnv.Reset()
	for i, raw := range raws {
		if err := inTable1(ccEnv.DecodeAction(raw)); err != nil {
			t.Fatalf("CC DecodeAction(%v): %v", raw, err)
		}
		// What the env applies to the emulator is what it records.
		_, _, ccDone := ccEnv.Step(raw)
		if err := inTable1(ccEnv.Records()[len(ccEnv.Records())-1].Action); err != nil {
			t.Fatalf("CC env step %d on %v: %v", i, raw, err)
		}
		if ccDone {
			ccEnv.Reset()
		}
	}
}
