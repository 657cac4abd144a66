// Package retry holds the one retry schedule of the repository: the capped,
// jittered exponential backoff that paces dist worker reconnects, the dist
// coordinator's wait for workers, and the serving layer's snapshot-reload
// retries.
package retry

import (
	"time"

	"advnet/internal/mathx"
)

// Backoff is a capped exponential retry schedule: delay k is Base<<k capped
// at Max, jittered down to [50%, 100%] so a fleet restarted together does
// not retry in lockstep.
type Backoff struct {
	Base time.Duration // first retry delay; <= 0 means DefaultBase
	Max  time.Duration // delay cap; <= 0 means DefaultMax
}

// Default schedule: 50ms, 100ms, 200ms, ... capped at 2s.
const (
	DefaultBase = 50 * time.Millisecond
	DefaultMax  = 2 * time.Second
)

// Delay returns the jittered delay before retry attempt (0-based). rng
// supplies the jitter (one Float64 draw); the result is always in (0, Max].
func (b Backoff) Delay(attempt int, rng *mathx.RNG) time.Duration {
	if b.Base <= 0 {
		b.Base = DefaultBase
	}
	if b.Max <= 0 {
		b.Max = DefaultMax
	}
	d := b.Base << uint(attempt)
	if d > b.Max || d <= 0 { // <= 0: the shift overflowed
		d = b.Max
	}
	return time.Duration((0.5 + 0.5*rng.Float64()) * float64(d))
}
