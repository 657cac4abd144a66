// Golden digests of a whole swarm Result. The constants were recorded at
// commit 11667c6, when stats.Summarize still rebuilt the merged order
// statistics once per percentile, and pin the single-merge Summarize that
// replaced it: every field must stay bit for bit. They may only change with a
// stated, intended change of scheduler arithmetic, event order, RNG use or
// percentile definition.
package swarm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// resultDigest hashes every field of res. %#v prints each float in its
// shortest round-trip form (signed zeros included), so equal digests mean
// bitwise-equal results.
func resultDigest(res *Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *res)))
	return hex.EncodeToString(sum[:])
}

// TestSwarmGoldenResult pins fluidConfig's Result at two reservoir sizes. At
// the default size no reservoir overflows, so every merged sample carries
// weight 1 (the equal-weight quantile path). At 64 the per-client reservoirs
// overflow, and so do the per-group chunk reservoirs — 13 and 12 clients × 24
// chunks into 64 slots — with unequal traffic, so QoEPerChunk runs the
// weighted walk.
func TestSwarmGoldenResult(t *testing.T) {
	for _, tc := range []struct {
		reservoirCap int
		want         string
	}{
		{0, "7c91a094b0c172498de85741494d4b7f2921890c9878a75af2d3b800333789f4"},
		{64, "6c9a7ed5d6eeb7bd804f5d80a04ed079980fb935eff1f57537259d6cba15fc66"},
	} {
		t.Run(fmt.Sprintf("cap=%d", tc.reservoirCap), func(t *testing.T) {
			cfg := fluidConfig(1)
			cfg.ReservoirCap = tc.reservoirCap
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("digest %s, want %s\nresult %#v", got, tc.want, *res)
			}
		})
	}
}
