package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/retry"
)

// BreakerState is the reload circuit breaker's typed state.
type BreakerState uint8

const (
	// BreakerClosed: reloads run normally; consecutive failed Reload calls
	// count toward the trip threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen: reloads are refused with *BreakerOpenError until the
	// cooldown elapses; the last-good snapshot keeps serving untouched.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the next Reload is a single
	// probe attempt (no retries) that closes the breaker on success and
	// re-opens it on failure.
	BreakerHalfOpen
)

// String names the state for logs and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breaker(%d)", uint8(s))
}

// BreakerOpenError reports a reload refused because the breaker is open.
// The registry's last-good snapshot keeps serving; the caller may retry at
// RetryAt. Unwrap exposes the failure that opened the breaker.
type BreakerOpenError struct {
	// RetryAt is when the breaker will admit a half-open probe.
	RetryAt time.Time
	// Cause is the last reload error before the breaker opened.
	Cause error
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: reload breaker open until %s (last failure: %v)", e.RetryAt.Format(time.RFC3339), e.Cause)
}

// Unwrap returns the failure that opened the breaker.
func (e *BreakerOpenError) Unwrap() error { return e.Cause }

// ReloadConfig parameterizes a Reloader. The zero value is production-ready.
type ReloadConfig struct {
	// MaxAttempts is the number of load attempts per Reload call while the
	// breaker is closed (default 4). Half-open probes always get exactly 1.
	MaxAttempts int
	// BackoffBase and BackoffMax parameterize the retry.Backoff schedule
	// slept between failed attempts (defaults 50ms and 2s), jittered by the
	// Reloader's RNG.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// TripAfter is the number of consecutive failed Reload calls (each one
	// MaxAttempts deep) that opens the breaker (default 3).
	TripAfter int
	// Cooldown is how long an open breaker refuses reloads before admitting
	// a half-open probe (default 30s).
	Cooldown time.Duration
	// Sleep and Now are injectable for deterministic tests (defaults
	// time.Sleep and time.Now).
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (c ReloadConfig) withDefaults() ReloadConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.TripAfter <= 0 {
		c.TripAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// ReloaderStats is a point-in-time digest of the reload control plane.
type ReloaderStats struct {
	State    BreakerState `json:"-"`
	StateStr string       `json:"breaker_state"`
	Trips    uint64       `json:"breaker_trips"`
	Reloads  uint64       `json:"reloads"`   // successful publishes
	Attempts uint64       `json:"attempts"`  // load attempts, incl. failures
	Failures int          `json:"failures"`  // consecutive failed Reload calls
	LastGood uint64       `json:"last_good"` // pinned snapshot id
}

// Reloader wraps Registry.ReloadFile with capped-exponential-backoff retries
// and a circuit breaker, the control-plane half of the degradation contract
// (DESIGN.md §8.7): transient checkpoint corruption or torn writes are
// retried with jittered backoff; persistent failure opens the breaker so a
// flapping publisher cannot hammer the disk, and the registry's last-good
// snapshot is pinned and keeps serving throughout. Jitter draws from the
// caller's RNG so a seeded run replays the exact same retry schedule.
// Reload calls are serialized; the engine's read path never blocks on them.
type Reloader struct {
	reg *Registry
	cfg ReloadConfig

	mu        sync.Mutex
	rng       *mathx.RNG
	state     BreakerState
	failures  int       // consecutive failed Reload calls
	openUntil time.Time // when an open breaker admits a probe
	lastErr   error     // failure that opened the breaker
	lastGood  *Snapshot // pinned: most recent successfully published snapshot
	trips     uint64
	reloads   uint64
	attempts  uint64
}

// NewReloader wraps reg. rng seeds the backoff jitter and must not be shared
// with concurrent users (split it: rng.Split()); nil means seed 1. The
// registry's current snapshot is the initial last-good pin.
func NewReloader(reg *Registry, rng *mathx.RNG, cfg ReloadConfig) *Reloader {
	if reg == nil {
		panic("serve: NewReloader with nil registry")
	}
	if rng == nil {
		rng = mathx.NewRNG(1)
	}
	return &Reloader{
		reg:      reg,
		cfg:      cfg.withDefaults(),
		rng:      rng,
		lastGood: reg.Current(),
	}
}

// backoff returns the jittered sleep before retry k (0-based).
func (l *Reloader) backoff(k int) time.Duration {
	return retry.Backoff{Base: l.cfg.BackoffBase, Max: l.cfg.BackoffMax}.Delay(k, l.rng)
}

// permanent reports whether err cannot succeed on retry: an architecture
// mismatch is a wrong artifact, not a torn write — backoff won't fix it.
func permanent(err error) bool {
	var arch *ArchMismatchError
	return errors.As(err, &arch)
}

// Reload loads path into the registry with retries and breaker admission.
// On success the new snapshot is returned and the breaker closes. On
// failure the registry is untouched — the last-good snapshot keeps serving —
// and the error is the final attempt's (or *BreakerOpenError if the breaker
// refused the call).
func (l *Reloader) Reload(path string) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	attempts := l.cfg.MaxAttempts
	switch l.state {
	case BreakerOpen:
		if now := l.cfg.Now(); now.Before(l.openUntil) {
			return nil, &BreakerOpenError{RetryAt: l.openUntil, Cause: l.lastErr}
		}
		l.state = BreakerHalfOpen
		fallthrough
	case BreakerHalfOpen:
		attempts = 1 // single probe
	}

	var err error
	for k := 0; k < attempts; k++ {
		if k > 0 {
			l.cfg.Sleep(l.backoff(k - 1))
		}
		var snap *Snapshot
		l.attempts++
		if snap, err = l.reg.ReloadFile(path); err == nil {
			l.state = BreakerClosed
			l.failures = 0
			l.lastErr = nil
			l.lastGood = snap
			l.reloads++
			return snap, nil
		}
		if permanent(err) {
			break
		}
	}

	l.lastErr = err
	l.failures++
	if l.state == BreakerHalfOpen || l.failures >= l.cfg.TripAfter {
		l.state = BreakerOpen
		l.openUntil = l.cfg.Now().Add(l.cfg.Cooldown)
		l.trips++
	}
	return nil, err
}

// State returns the breaker's current admission state. Note an elapsed
// cooldown only transitions open→half-open at the next Reload call.
func (l *Reloader) State() BreakerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Stats digests the reload control plane for telemetry.
func (l *Reloader) Stats() ReloaderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ReloaderStats{
		State:    l.state,
		StateStr: l.state.String(),
		Trips:    l.trips,
		Reloads:  l.reloads,
		Attempts: l.attempts,
		Failures: l.failures,
		LastGood: l.lastGood.ID(),
	}
}
