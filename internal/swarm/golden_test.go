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

	"advnet/internal/cc"
	"advnet/internal/netem"
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

// TestSwarmNetemGoldenResult pins the packet backend's Result: two groups of
// six clients, each on a 6 Mbps link of 40 ms one-way delay, 2% loss and a
// 200-packet queue. The digests were recorded at commit df31532 and cover
// every field but Events, which counts the emulator's events and is pinned
// on its own: at df31532 every superseded RTO timer was still popped from the
// packet heap and counted (Reno 588 353 events, BBR 506 683); since timers
// that can no longer fire are dropped when the flow re-arms, the count fell
// while every other field stayed bit for bit.
func TestSwarmNetemGoldenResult(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newCC  func() netem.CongestionController
		events uint64
		want   string
	}{
		{"reno", func() netem.CongestionController { return cc.NewReno() }, 493794, "715fdb556a9038949d43e9fd07144a30ffd28323ae3d73e12c03a596cf3e42ab"},
		{"bbr", func() netem.CongestionController { return cc.NewBBR() }, 411059, "03aaec0f9bfca3a731c8349bf94994dca3e2d34154d5468b4a7065717e0bd87d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Clients:       12,
				Groups:        2,
				Workers:       2,
				Seed:          42,
				Video:         fluidConfig(2).Video,
				NewProtocol:   mixedProtocols,
				CapacityMbps:  6,
				RTTSeconds:    0.08,
				StartWindowS:  12,
				Backend:       NetemBackend,
				NewCC:         tc.newCC,
				QueuePackets:  200,
				OneWayDelayMs: 40,
				LossRate:      0.02,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != tc.events {
				t.Errorf("%d events, want %d", res.Events, tc.events)
			}
			rest := *res
			rest.Events = 0
			if got := resultDigest(&rest); got != tc.want {
				t.Errorf("digest %s, want %s\nresult %#v", got, tc.want, *res)
			}
		})
	}
}
