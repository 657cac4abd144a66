package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/par"
)

// hookedEngine is MustNewEngine with beforeFlush run at the top of every
// flush, on the caller that gathers.
func hookedEngine(t *testing.T, beforeFlush func(shard int), reg *Registry, cfg Config) *Engine {
	t.Helper()
	e, err := newEngine(reg, cfg, beforeFlush)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero config", Config{}, true},
		{"negative DefaultDeadline", Config{DefaultDeadline: -time.Second}, false},
		{"deadline config", Config{DefaultDeadline: time.Millisecond}, true},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if _, err := NewEngine(NewRegistry(rigged(2, 3, 1)), Config{DefaultDeadline: -time.Second}); err == nil {
		t.Fatal("NewEngine accepted a negative DefaultDeadline")
	}
}

// TestEngineOverloadShedsQueueFull stalls the only worker so the shard queue
// fills, then checks that deadline-carrying Selects shed with a typed
// *OverloadError instead of blocking, and that shed requests are counted.
func TestEngineOverloadShedsQueueFull(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	var stalled atomic.Bool
	beforeFlush := func(int) {
		if stalled.CompareAndSwap(false, true) {
			<-block // first flush stalls: everything behind it queues up
		}
	}

	// MaxBatch 1: the stalled flush holds exactly one (saturator) request,
	// so the main goroutine's deadline requests below can never be claimed
	// into the stalled batch.
	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 2,
	})
	defer eng.Close()

	x := []float64{0, 0}
	// Saturators (no deadline) occupy the stalled flush and the queue; they
	// block until the stall releases and must all be served then.
	var sat sync.WaitGroup
	satErrs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		sat.Add(1)
		go func() {
			defer sat.Done()
			_, err := eng.Select(x)
			satErrs <- err
		}()
	}
	for !stalled.Load() {
		time.Sleep(time.Millisecond) // a saturator is now pinned in flush
	}
	// With the worker stalled, deadline-carrying Selects must shed typed
	// errors instead of blocking.
	deadline := time.Now().Add(5 * time.Second)
	shed := 0
	for shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		_, err := eng.SelectDeadline(x, 2*time.Millisecond)
		var oe *OverloadError
		if err == nil {
			continue
		}
		if !errors.As(err, &oe) {
			t.Fatalf("Select under overload: %v, want *OverloadError", err)
		}
		if oe.Reason != OverloadQueueFull && oe.Reason != OverloadDeadline {
			t.Fatalf("unexpected shed reason %v", oe.Reason)
		}
		shed++
	}
	if eng.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}
	release()
	sat.Wait()
	close(satErrs)
	for err := range satErrs {
		if err != nil {
			t.Fatalf("saturating Select after stall released: %v", err)
		}
	}
	// After the stall clears the engine serves normally again.
	if _, err := eng.SelectDeadline(x, time.Second); err != nil {
		t.Fatalf("Select after stall released: %v", err)
	}
}

// TestEngineDeadlineBoundsLatency runs a 2×-capacity storm with per-request
// deadlines and asserts the degradation contract: no Select observes latency
// beyond deadline + one forward pass (plus scheduling slop), and every shed
// is typed.
func TestEngineDeadlineBoundsLatency(t *testing.T) {
	// Each flush stalls ~200µs, so one worker serves ~5k req/s per batch of
	// 4; 8 hot producers offer far more than that.
	beforeFlush := func(int) {
		time.Sleep(200 * time.Microsecond)
	}

	const reqDeadline = 500 * time.Microsecond
	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 1, MaxBatch: 4, QueueDepth: 4,
		DefaultDeadline: reqDeadline,
	})
	defer eng.Close()

	// Budget: deadline + one forward pass (the stalled flush) + generous
	// scheduler slop for CI machines.
	budget := reqDeadline + 200*time.Microsecond + 50*time.Millisecond

	var wg sync.WaitGroup
	var served, shed atomic.Uint64
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := []float64{0, 0}
			for i := 0; i < 300; i++ {
				start := time.Now()
				_, err := eng.Select(x)
				lat := time.Since(start)
				if lat > budget {
					errs <- fmt.Errorf("Select latency %v beyond deadline+forward budget %v", lat, budget)
					return
				}
				if err == nil {
					served.Add(1)
					continue
				}
				var oe *OverloadError
				if !errors.As(err, &oe) {
					errs <- fmt.Errorf("storm Select: %v, want *OverloadError", err)
					return
				}
				shed.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shed.Load() == 0 {
		t.Fatal("2x overload storm shed nothing — overload not reached")
	}
	if served.Load() == 0 {
		t.Fatal("storm served nothing — shedding everything is not degradation")
	}
	if got := eng.Shed(); got != shed.Load() {
		t.Fatalf("engine shed counter %d, callers observed %d", got, shed.Load())
	}
}

// TestEngineCloseDuringStorm closes the engine while 8 goroutines hammer it
// and checks that every Select either completes or returns ErrEngineClosed —
// none hang, none panic — and that Close itself returns.
func TestEngineCloseDuringStorm(t *testing.T) {
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 2, MaxBatch: 4, QueueDepth: 4,
	})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			x := []float64{0, 0}
			for i := 0; i < 5000; i++ {
				d, err := eng.Select(x)
				if err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						errs <- fmt.Errorf("Select during close: %v", err)
					}
					return
				}
				if d.Level != 1 {
					errs <- fmt.Errorf("rigged level %d, want 1", d.Level)
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let the storm build
	done := make(chan struct{})
	go func() { eng.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return during storm")
	}
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	select {
	case <-stormDone:
	case <-time.After(10 * time.Second):
		t.Fatal("a Select call hung across Close")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := eng.Select([]float64{0, 0}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Select after Close: %v, want ErrEngineClosed", err)
	}
}

// TestEngineCloseWakesBlockedProducer checks that a Select blocked on a full
// queue (no deadline) is woken by Close with ErrEngineClosed instead of
// blocking forever.
func TestEngineCloseWakesBlockedProducer(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	var stalled atomic.Bool
	beforeFlush := func(int) {
		if stalled.CompareAndSwap(false, true) {
			<-block
		}
	}

	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 1,
	})

	// Saturate: one request stalls in flush, one fills the queue, the next
	// producer blocks on the handoff.
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := eng.Select([]float64{0, 0})
			results <- err
		}()
	}
	time.Sleep(10 * time.Millisecond) // let producers pile onto the full queue

	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	time.Sleep(10 * time.Millisecond)
	release() // un-stall the worker so drain can finish

	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked behind a stuck producer")
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-results:
			if err != nil && !errors.Is(err, ErrEngineClosed) {
				t.Fatalf("blocked producer got %v, want nil or ErrEngineClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a producer never returned after Close")
		}
	}
}

// TestEngineShardPanicContainment injects a panic into one shard's flush and
// asserts: the batch's callers get a typed *par.PanicError, the panicking
// shard keeps serving afterwards (cache rebuilt), other shards never notice,
// and the panic counter records it.
func TestEngineShardPanicContainment(t *testing.T) {
	var fired atomic.Bool
	beforeFlush := func(shard int) {
		if shard == 0 && fired.CompareAndSwap(false, true) {
			panic("injected flush panic")
		}
	}

	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 2, MaxBatch: 4,
	})
	defer eng.Close()

	// Round-robin over 2 shards: drive requests until the injected panic
	// surfaces on one of them.
	x := []float64{0, 0}
	var perr *par.PanicError
	deadline := time.Now().Add(5 * time.Second)
	for perr == nil {
		if time.Now().After(deadline) {
			t.Fatal("injected panic never surfaced")
		}
		_, err := eng.Select(x)
		if err == nil {
			continue
		}
		if !errors.As(err, &perr) {
			t.Fatalf("Select during injected panic: %v, want *par.PanicError", err)
		}
	}
	if perr.Index != 0 {
		t.Fatalf("panic attributed to shard %d, want 0", perr.Index)
	}
	if len(perr.Stack) == 0 || perr.Value == nil {
		t.Fatalf("panic error missing diagnostics: %+v", perr)
	}
	if eng.Panics() != 1 {
		t.Fatalf("panic counter %d, want 1", eng.Panics())
	}
	// The panicked shard restarted: every subsequent request on every shard
	// serves the rigged level.
	for i := 0; i < 64; i++ {
		d, err := eng.Select(x)
		if err != nil {
			t.Fatalf("Select after contained panic: %v", err)
		}
		if d.Level != 1 {
			t.Fatalf("post-panic level %d, want 1 (stale/corrupt shard cache?)", d.Level)
		}
	}
}

// TestEngineShedPathAllocs proves the deadline shed path allocates nothing
// in steady state: pooled requests reuse their timer, and the shed errors
// are shared instances.
func TestEngineShedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping breaks AllocsPerRun accounting")
	}
	block := make(chan struct{})
	defer close(block)
	var stalls atomic.Uint64
	beforeFlush := func(int) {
		stalls.Add(1)
		<-block // stall forever: everything sheds
	}

	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 1,
	})
	defer func() {
		go eng.Close() // after the deferred close(block) releases the stalled flush
	}()

	x := []float64{0, 0}
	// Saturators occupy the stalled flush and the queue slot; they unblock
	// only when the deferred close(block) releases the worker.
	for i := 0; i < 2; i++ {
		go eng.Select(x)
	}
	for stalls.Load() == 0 {
		time.Sleep(time.Millisecond) // wait until the worker is provably stalled
	}
	// Warm the pool/timers, then measure: every deadline Select sheds.
	for i := 0; i < 50; i++ {
		eng.SelectDeadline(x, 200*time.Microsecond)
	}
	n := testing.AllocsPerRun(200, func() {
		_, err := eng.SelectDeadline(x, 200*time.Microsecond)
		if err == nil {
			t.Fatal("expected shed under permanent stall")
		}
	})
	if n > 0.5 {
		t.Fatalf("shed path allocates %v per op, want 0", n)
	}
}

// TestOverloadErrorStrings pins the typed error formatting the runbooks key
// on.
func TestOverloadErrorStrings(t *testing.T) {
	if got := errShedQueueFull.Error(); got != "serve: request shed (queue-full): engine over capacity" {
		t.Fatalf("queue-full error = %q", got)
	}
	if got := errShedDeadline.Error(); got != "serve: request shed (deadline): engine over capacity" {
		t.Fatalf("deadline error = %q", got)
	}
	if got := OverloadReason(9).String(); got != "overload(9)" {
		t.Fatalf("unknown reason = %q", got)
	}
}

// TestEngineStatsDegradation checks the Stats digest carries the shed and
// panic counters and that ShedRate reflects them.
func TestEngineStatsDegradation(t *testing.T) {
	st := EngineStats{Served: 90, ShedQueue: 6, ShedDeadline: 4}
	if st.Shed() != 10 {
		t.Fatalf("Shed() = %d, want 10", st.Shed())
	}
	if got := st.ShedRate(); got != 0.1 {
		t.Fatalf("ShedRate() = %v, want 0.1", got)
	}
	if (EngineStats{}).ShedRate() != 0 {
		t.Fatal("empty digest ShedRate not 0")
	}
}

// TestEngineDefaultDeadlineApplies checks Config.DefaultDeadline governs
// plain Select: under a permanent stall it sheds instead of blocking.
func TestEngineDefaultDeadlineApplies(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var stalled atomic.Bool
	beforeFlush := func(int) {
		stalled.Store(true)
		<-block
	}

	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 1,
		DefaultDeadline: time.Millisecond,
	})
	defer func() { go eng.Close() }()

	// Saturators with the deadline explicitly disabled occupy the stalled
	// flush and the queue slot; they unblock at the deferred close(block).
	x := []float64{0, 0}
	for i := 0; i < 2; i++ {
		go eng.SelectDeadline(x, 0)
	}
	for !stalled.Load() {
		time.Sleep(time.Millisecond) // a saturator is now pinned in flush
	}

	var oe *OverloadError
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("DefaultDeadline never shed under permanent stall")
		}
		start := time.Now()
		_, err := eng.Select(x)
		if err == nil {
			continue
		}
		if !errors.As(err, &oe) {
			t.Fatalf("Select: %v, want *OverloadError", err)
		}
		if lat := time.Since(start); lat > 500*time.Millisecond {
			t.Fatalf("default-deadline shed took %v", lat)
		}
		return
	}
}

// deterministically exercise the claim/abandon race: many tiny deadlines
// against a slow flush must never double-answer or corrupt pooled requests
// (the -race build is the real assertion here).
func TestEngineAbandonRace(t *testing.T) {
	beforeFlush := func(int) {
		time.Sleep(50 * time.Microsecond)
	}

	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{
		Workers: 2, MaxBatch: 4, QueueDepth: 4,
	})
	defer eng.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := mathx.NewRNG(seed)
			x := []float64{0, 0}
			for i := 0; i < 1500; i++ {
				// Deadlines straddling the flush latency maximize
				// claim-vs-abandon photo finishes.
				d := time.Duration(10+rng.Intn(100)) * time.Microsecond
				_, err := eng.SelectDeadline(x, d)
				if err != nil {
					var oe *OverloadError
					if !errors.As(err, &oe) {
						t.Errorf("SelectDeadline: %v", err)
						return
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if eng.Served()+eng.Shed() != 4*1500 {
		t.Fatalf("served %d + shed %d != offered %d", eng.Served(), eng.Shed(), 4*1500)
	}
}
