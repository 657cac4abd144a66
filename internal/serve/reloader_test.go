package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
)

// reloadFixture returns a registry serving a [4 8 3] net plus a valid policy
// file of the same architecture.
func reloadFixture(t *testing.T) (*Registry, string) {
	t.Helper()
	rng := mathx.NewRNG(7)
	reg := NewRegistry(nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh))
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := rl.SavePolicyNet(path, nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh)); err != nil {
		t.Fatal(err)
	}
	return reg, path
}

// corruptPolicy overwrites path with a policy envelope whose sha256 does
// not match its payload — a torn or tampered checkpoint — and returns the
// error the loader gives for it.
func corruptPolicy(t *testing.T, path string) error {
	t.Helper()
	if err := os.WriteFile(path, []byte(`{"version":1,"kind":"policy","sha256":"00","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := rl.LoadPolicyNet(path)
	if err == nil {
		t.Fatal("corrupt policy loaded")
	}
	return err
}

// repairPolicy overwrites path with a valid [4 8 3] policy.
func repairPolicy(t *testing.T, path string) {
	t.Helper()
	if err := rl.SavePolicyNet(path, nn.NewMLP(mathx.NewRNG(8), []int{4, 8, 3}, nn.Tanh)); err != nil {
		t.Fatal(err)
	}
}

// fakeClock is an injectable Now/Sleep pair: Sleep advances the clock and
// records every requested duration, making retry schedules fully
// deterministic and instant. onSleep, when set, runs after the n-th sleep
// (1-based) — what the world did while the reloader waited.
type fakeClock struct {
	now     time.Time
	sleeps  []time.Duration
	onSleep func(n int)
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	if c.onSleep != nil {
		c.onSleep(len(c.sleeps))
	}
}

func TestReloaderRetriesTransientFailure(t *testing.T) {
	reg, path := reloadFixture(t)
	// The first two load attempts find a torn file; the writer finishes
	// during the second backoff sleep, so the third attempt succeeds.
	corruptPolicy(t, path)
	clk := &fakeClock{now: time.Unix(1000, 0), onSleep: func(n int) {
		if n == 2 {
			repairPolicy(t, path)
		}
	}}
	l := NewReloader(reg, mathx.NewRNG(11), ReloadConfig{
		MaxAttempts: 4, BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second,
		Sleep: clk.Sleep, Now: clk.Now,
	})

	snap, err := l.Reload(path)
	if err != nil {
		t.Fatalf("Reload with transient failures: %v", err)
	}
	if reg.Current() != snap || snap.ID() != 2 {
		t.Fatalf("retry did not publish: id=%d", snap.ID())
	}
	if len(clk.sleeps) != 2 {
		t.Fatalf("slept %d times for 2 transient failures, want 2: %v", len(clk.sleeps), clk.sleeps)
	}
	// Jittered capped exponential: sleep k in [base<<k / 2, base<<k].
	for k, d := range clk.sleeps {
		lo, hi := 25*time.Millisecond<<k, 50*time.Millisecond<<k
		if d < lo || d > hi {
			t.Fatalf("backoff %d = %v outside [%v, %v]", k, d, lo, hi)
		}
	}
	if l.State() != BreakerClosed || l.Stats().Trips != 0 {
		t.Fatalf("breaker %v trips %d after recovery, want closed/0", l.State(), l.Stats().Trips)
	}
	if st := l.Stats(); st.Reloads != 1 || st.Attempts != 3 || st.LastGood != snap.ID() {
		t.Fatalf("stats %+v", st)
	}
}

func TestReloaderBackoffDeterministicAndCapped(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		reg, path := reloadFixture(t)
		clk := &fakeClock{now: time.Unix(1000, 0)}
		l := NewReloader(reg, mathx.NewRNG(seed), ReloadConfig{
			MaxAttempts: 6, BackoffBase: 100 * time.Millisecond, BackoffMax: 300 * time.Millisecond,
			TripAfter: 100, Sleep: clk.Sleep, Now: clk.Now,
		})
		corruptPolicy(t, path)
		if _, err := l.Reload(path); err == nil {
			t.Fatal("Reload succeeded under permanent failure")
		}
		return clk.sleeps
	}

	a, b := schedule(42), schedule(42)
	if len(a) != 5 {
		t.Fatalf("6 attempts slept %d times, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
	}
	// The cap binds: pre-jitter backoffs are 100,200,300,300,300ms, so no
	// jittered sleep may exceed 300ms, and sleeps 2+ stay in [150,300]ms.
	for k, d := range a {
		if d > 300*time.Millisecond {
			t.Fatalf("backoff %d = %v beyond cap", k, d)
		}
		if k >= 2 && d < 150*time.Millisecond {
			t.Fatalf("capped backoff %d = %v below half-cap jitter floor", k, d)
		}
	}
	if c := schedule(43); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] && c[4] == a[4] {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}

func TestReloaderBreakerTripsAndRecovers(t *testing.T) {
	reg, path := reloadFixture(t)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := NewReloader(reg, mathx.NewRNG(5), ReloadConfig{
		MaxAttempts: 2, TripAfter: 3, Cooldown: 10 * time.Second,
		BackoffBase: time.Millisecond, Sleep: clk.Sleep, Now: clk.Now,
	})
	lastGood := reg.Current()
	want := corruptPolicy(t, path)

	// TripAfter consecutive failed calls open the breaker.
	var down error // the failure that opens it
	for i := 0; i < 3; i++ {
		if l.State() != BreakerClosed {
			t.Fatalf("call %d: breaker %v, want closed", i, l.State())
		}
		if _, down = l.Reload(path); down == nil || down.Error() != want.Error() {
			t.Fatalf("call %d: %v, want the loader's %v", i, down, want)
		}
	}
	if l.State() != BreakerOpen || l.Stats().Trips != 1 {
		t.Fatalf("breaker %v trips %d after %d failed calls, want open/1", l.State(), l.Stats().Trips, 3)
	}

	// Open: refused with typed error carrying the cause and retry time, and
	// the disk is not touched (attempts must not grow).
	attemptsBefore := l.Stats().Attempts
	_, err := l.Reload(path)
	var oe *BreakerOpenError
	if !errors.As(err, &oe) {
		t.Fatalf("Reload with open breaker: %v, want *BreakerOpenError", err)
	}
	if !errors.Is(err, down) {
		t.Fatal("BreakerOpenError does not unwrap to the opening cause")
	}
	if want := clk.now.Add(10 * time.Second); !oe.RetryAt.Equal(want) {
		t.Fatalf("RetryAt %v, want %v", oe.RetryAt, want)
	}
	if l.Stats().Attempts != attemptsBefore {
		t.Fatal("open breaker still hit the loader")
	}
	// Throughout the outage the last-good snapshot keeps serving.
	if reg.Current() != lastGood || l.Stats().LastGood != lastGood.ID() {
		t.Fatal("failed reloads displaced the serving snapshot")
	}

	// Cooldown elapses; the probe still fails → breaker re-opens (2nd trip).
	clk.now = clk.now.Add(11 * time.Second)
	if _, err := l.Reload(path); err == nil || err.Error() != want.Error() {
		t.Fatalf("half-open probe: %v, want the loader's %v", err, want)
	}
	if l.State() != BreakerOpen || l.Stats().Trips != 2 {
		t.Fatalf("breaker %v trips %d after failed probe, want open/2", l.State(), l.Stats().Trips)
	}

	// Next cooldown: the file is repaired, the probe succeeds, breaker
	// closes.
	repairPolicy(t, path)
	clk.now = clk.now.Add(11 * time.Second)
	snap, err := l.Reload(path)
	if err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if l.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", l.State())
	}
	if reg.Current() != snap || l.Stats().LastGood != snap.ID() {
		t.Fatal("recovery did not publish and pin the new snapshot")
	}
	if st := l.Stats(); st.StateStr != "closed" || st.Trips != 2 || st.Failures != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReloaderArchMismatchDoesNotRetry(t *testing.T) {
	rng := mathx.NewRNG(9)
	reg := NewRegistry(nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh))
	wrong := filepath.Join(t.TempDir(), "wrong.json")
	if err := rl.SavePolicyNet(wrong, nn.NewMLP(rng, []int{5, 8, 3}, nn.Tanh)); err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := NewReloader(reg, nil, ReloadConfig{MaxAttempts: 5, Sleep: clk.Sleep, Now: clk.Now})

	_, err := l.Reload(wrong)
	var mismatch *ArchMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Reload of wrong arch: %v, want *ArchMismatchError", err)
	}
	if st := l.Stats(); st.Attempts != 1 {
		t.Fatalf("permanent failure retried: %d attempts, want 1", st.Attempts)
	}
	if len(clk.sleeps) != 0 {
		t.Fatalf("permanent failure slept: %v", clk.sleeps)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" || BreakerHalfOpen.String() != "half-open" {
		t.Fatal("breaker state names changed")
	}
	if got := BreakerState(9).String(); got != "breaker(9)" {
		t.Fatalf("unknown state = %q", got)
	}
}
