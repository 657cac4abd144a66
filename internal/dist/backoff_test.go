package dist

import (
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/retry"
)

// TestBackoffSchedule: delays double from Base, cap at Max, and every
// jittered sample lands in [50%, 100%] of the nominal delay. Pinned here
// because the documented bounds on waiting for workers and on redialing
// (DefaultWaitRounds, DefaultMaxDialAttempts) are sums over this schedule.
func TestBackoffSchedule(t *testing.T) {
	b := retry.Backoff{Base: 40 * time.Millisecond, Max: 300 * time.Millisecond}
	rng := mathx.NewRNG(11)
	nominal := []time.Duration{
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		300 * time.Millisecond, 300 * time.Millisecond,
	}
	for attempt, want := range nominal {
		for trial := 0; trial < 64; trial++ {
			d := b.Delay(attempt, rng)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d trial %d: delay %v outside [%v, %v]", attempt, trial, d, want/2, want)
			}
		}
	}
	// Huge attempt numbers must not overflow past the cap.
	if d := b.Delay(200, rng); d > b.Max {
		t.Fatalf("attempt 200: delay %v exceeds cap %v", d, b.Max)
	}
}

// TestBackoffDefaults: the zero value uses the documented default schedule.
func TestBackoffDefaults(t *testing.T) {
	var b retry.Backoff
	rng := mathx.NewRNG(3)
	if d := b.Delay(0, rng); d < retry.DefaultBase/2 || d > retry.DefaultBase {
		t.Fatalf("zero-value first delay %v outside [%v, %v]", d, retry.DefaultBase/2, retry.DefaultBase)
	}
	if d := b.Delay(63, rng); d > retry.DefaultMax {
		t.Fatalf("zero-value capped delay %v exceeds %v", d, retry.DefaultMax)
	}
}
