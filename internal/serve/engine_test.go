package serve

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// rigged builds a single-layer net over in features whose argmax is always
// level, regardless of input: zero weights, one-hot bias.
func rigged(in, levels, level int) *nn.MLP {
	net := nn.NewMLP(mathx.NewRNG(1), []int{in, levels}, nn.Tanh)
	ps := net.Params()
	for i := range ps[0] {
		ps[0][i] = 0
	}
	for i := range ps[1] {
		ps[1][i] = 0
	}
	ps[1][level] = 1
	return net
}

// riggedW builds a single-layer net whose argmax on an all-ones input is
// level, encoded in the WEIGHTS (row `level` is all ones, bias zero). Unlike
// rigged, snapshots built this way differ in exactly the state the serving
// caches transpose and reuse, so a worker serving a stale weight transpose
// after a hot reload produces a detectably wrong level.
func riggedW(in, levels, level int) *nn.MLP {
	net := nn.NewMLP(mathx.NewRNG(1), []int{in, levels}, nn.Tanh)
	ps := net.Params()
	for i := range ps[0] {
		ps[0][i] = 0
	}
	for i := range ps[1] {
		ps[1][i] = 0
	}
	for j := 0; j < in; j++ {
		ps[0][level*in+j] = 1
	}
	return net
}

// goid returns the goroutine id in the header of a runtime.Stack dump
// ("goroutine 18 [running]:").
func goid(stack string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
	return id
}

// MustNewEngine is NewEngine for a Config the test knows is valid.
func MustNewEngine(reg *Registry, cfg Config) *Engine {
	e, err := NewEngine(reg, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

func TestEngineMatchesPredictArgmax(t *testing.T) {
	rng := mathx.NewRNG(42)
	net := nn.NewMLP(rng, []int{6, 16, 4}, nn.Tanh)
	reg := NewRegistry(net)
	eng := MustNewEngine(reg, Config{Workers: 2, MaxBatch: 8})
	defer eng.Close()

	x := make([]float64, 6)
	for i := 0; i < 500; i++ {
		for j := range x {
			x[j] = rng.Uniform(-2, 2)
		}
		want := mathx.ArgMax(net.Predict(x))
		d, err := eng.Select(x)
		if err != nil {
			t.Fatal(err)
		}
		if d.Level != want {
			t.Fatalf("iter %d: engine level %d, Predict argmax %d", i, d.Level, want)
		}
		if d.Snapshot != 1 {
			t.Fatalf("snapshot id %d, want 1", d.Snapshot)
		}
	}
}

func TestEngineConcurrentStorm(t *testing.T) {
	reg := NewRegistry(rigged(3, 5, 2))
	// Every 8th request carries a timestamp, so the reservoir count below
	// proves none of the sampled ones were dropped on the way to the summary.
	eng := MustNewEngine(reg, Config{Workers: 4, MaxBatch: 16})
	defer eng.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := mathx.NewRNG(seed)
			x := make([]float64, 3)
			for i := 0; i < 2000; i++ {
				for j := range x {
					x[j] = rng.Uniform(-1, 1)
				}
				d, err := eng.Select(x)
				if err != nil {
					errs <- err
					return
				}
				if d.Level != 2 {
					errs <- errors.New("rigged argmax not served")
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := eng.Served(); got != 8*2000 {
		t.Fatalf("served %d, want %d", got, 8*2000)
	}
	st := eng.Stats()
	if st.Batches == 0 || st.AvgBatch < 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Latency.Count != st.Served/8 {
		t.Fatalf("latency count %d", st.Latency.Count)
	}
}

func TestEngineSelectFeatureSizeMismatch(t *testing.T) {
	eng := MustNewEngine(NewRegistry(rigged(4, 3, 0)), Config{Workers: 1})
	defer eng.Close()
	if _, err := eng.Select(make([]float64, 5)); err == nil {
		t.Fatal("no error for wrong feature width")
	}
}

func TestEngineClose(t *testing.T) {
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 2, MaxBatch: 4})
	for i := 0; i < 8; i++ { // the first round-robin round is latency-sampled
		if _, err := eng.Select([]float64{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Select([]float64{0, 0}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Select after Close: %v, want ErrEngineClosed", err)
	}
	// Counters and stats remain readable at quiescence.
	if eng.Served() == 0 || eng.Stats().Latency.Count == 0 {
		t.Fatal("post-close stats lost the served request")
	}
}

func TestEngineLatencySamplingDefault(t *testing.T) {
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 1, MaxBatch: 4})
	defer eng.Close()
	x := []float64{0, 0}
	const n = 800
	for i := 0; i < n; i++ {
		if _, err := eng.Select(x); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	st := eng.Stats()
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	// Sequence numbers 1..n, sampled on multiples of the default 8.
	if want := uint64(n / 8); st.Latency.Count != want {
		t.Fatalf("default sampling recorded %d latencies for %d requests, want %d", st.Latency.Count, n, want)
	}
}

func TestEngineSelectSteadyStateAllocs(t *testing.T) {
	// One worker so the path is deterministic.
	eng := MustNewEngine(NewRegistry(rigged(4, 3, 0)), Config{Workers: 1, MaxBatch: 8})
	defer eng.Close()
	x := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 100; i++ { // warm the request pool and cache scratch
		if _, err := eng.Select(x); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(2000, func() {
		if _, err := eng.Select(x); err != nil {
			t.Fatal(err)
		}
	})
	// sync.Pool may be trimmed by a GC mid-measurement; anything beyond that
	// noise means the request path or worker loop allocates.
	if n > 0.5 {
		t.Fatalf("Select allocates %v per op in steady state, want 0", n)
	}
}

// TestEngineLatencySamplesEveryShard: the sampled requests are spread over
// every shard, whatever the worker count — including counts that divide
// the sampling period, where sampling every latencySample-th sequence number
// would land every sample on one shard.
func TestEngineLatencySamplesEveryShard(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: workers})
		for i := 0; i < 40*workers; i++ {
			if _, err := eng.Select([]float64{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		for _, sh := range eng.shards {
			if sh.lat.Count() == 0 {
				t.Errorf("workers=%d: shard %d recorded no latency sample", workers, sh.idx)
			}
		}
	}
}

// TestEngineLoneSelectFlushesAlone: a caller alone with the engine is
// answered by a batch of its own — nothing holds a request open waiting for
// company — and, finding its shard idle, runs that flush on its own
// goroutine instead of handing it to the worker.
func TestEngineLoneSelectFlushesAlone(t *testing.T) {
	var offCaller atomic.Int64
	buf := make([]byte, 16<<10)
	beforeFlush := func(int) {
		if !bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("serve.(*Engine).SelectDeadline")) {
			offCaller.Add(1)
		}
	}
	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{Workers: 1})
	defer eng.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := eng.Select([]float64{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Batches(); got != n {
		t.Fatalf("%d sequential Selects took %d batches, want %d", n, got, n)
	}
	if got := offCaller.Load(); got != 0 {
		t.Fatalf("%d of %d lone flushes ran off the calling goroutine, want 0", got, n)
	}
}

// TestEngineBusyShardQueues: a request that finds its shard busy — caller A
// is stalled inside its own inline flush — is queued, answered only after A's
// flush ends, and flushed on caller B's own goroutine, to which A's release
// hands the shard. The shard never runs two flushes at once.
func TestEngineBusyShardQueues(t *testing.T) {
	release := make(chan struct{})
	stalled := make(chan struct{})
	var inFlush, maxInFlush atomic.Int64
	var mu sync.Mutex
	var stacks []string
	beforeFlush := func(int) {
		n := inFlush.Add(1)
		for {
			m := maxInFlush.Load()
			if n <= m || maxInFlush.CompareAndSwap(m, n) {
				break
			}
		}
		buf := make([]byte, 16<<10)
		buf = buf[:runtime.Stack(buf, false)]
		mu.Lock()
		stacks = append(stacks, string(buf))
		first := len(stacks) == 1
		mu.Unlock()
		if first {
			close(stalled)
			<-release // caller A's flush holds the shard until released
		}
		inFlush.Add(-1)
	}
	eng := hookedEngine(t, beforeFlush, NewRegistry(rigged(2, 3, 1)), Config{Workers: 1})
	defer eng.Close()

	x := []float64{0, 0}
	errA := make(chan error, 1)
	go func() {
		_, err := eng.Select(x)
		errA <- err
	}()
	<-stalled

	var released atomic.Bool
	type result struct {
		d        Decision
		err      error
		released bool
	}
	resB := make(chan result, 1)
	goidB := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<10)
		goidB <- goid(string(buf[:runtime.Stack(buf, false)]))
		d, err := eng.Select(x)
		resB <- result{d, err, released.Load()}
	}()
	select {
	case r := <-resB:
		t.Fatalf("caller B answered (%+v) while caller A's flush held the shard", r)
	case <-time.After(20 * time.Millisecond):
	}
	released.Store(true)
	close(release)

	if err := <-errA; err != nil {
		t.Fatalf("caller A: %v", err)
	}
	r := <-resB
	if r.err != nil || r.d.Level != 1 {
		t.Fatalf("caller B: %+v, %v; want level 1", r.d, r.err)
	}
	if !r.released {
		t.Fatal("caller B answered before caller A's flush was released")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stacks) != 2 {
		t.Fatalf("%d flushes, want 2 (A inline, then B on its own goroutine)", len(stacks))
	}
	if !strings.Contains(stacks[0], "serve.(*Engine).SelectDeadline") {
		t.Errorf("caller A's flush ran off its goroutine:\n%s", stacks[0])
	}
	if id := <-goidB; goid(stacks[1]) != id {
		t.Errorf("caller B's flush ran on goroutine %s, not on B's goroutine %s:\n%s", goid(stacks[1]), id, stacks[1])
	}
	if m := maxInFlush.Load(); m > 1 {
		t.Fatalf("%d flushes ran at once on one shard, want at most 1", m)
	}
}

// awaitSelect fails the test if a Select's result does not arrive in time: a
// request nobody comes back for hangs its caller for good.
func awaitSelect(t *testing.T, res <-chan error, who string) {
	t.Helper()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was queued and never answered", who)
	}
}

// TestEngineNoRequestStranded: a queued request is answered only if some
// gatherer comes back for it. Two steps close the hand-off
// race, and each subtest pins one: the holder that found its queue empty
// looks again after it unlocks, and a caller that queued tries the lock.
func TestEngineNoRequestStranded(t *testing.T) {
	x := []float64{0, 0}
	t.Run("holder looks again after unlocking", func(t *testing.T) {
		eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 1})
		defer eng.Close()
		sh := eng.shards[0]
		resB := make(chan error, 1)
		var once sync.Once
		eng.beforeUnlock = func(int) {
			once.Do(func() {
				// A holds the shard and found its queue empty. B finds the
				// shard busy, queues, fails its TryLock and leaves the
				// admission window, all before A unlocks.
				go func() {
					_, err := eng.Select(x)
					resB <- err
				}()
				for len(sh.q) == 0 || eng.inflight.Load() != 1 {
					runtime.Gosched()
				}
			})
		}
		if _, err := eng.Select(x); err != nil {
			t.Fatalf("caller A: %v", err)
		}
		awaitSelect(t, resB, "caller B")
	})
	t.Run("caller takes the lock after queueing", func(t *testing.T) {
		eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 1})
		defer eng.Close()
		sh := eng.shards[0]
		// No one holds the shard, and its queue holds a request whose caller
		// gave up: B finds the shard busy and queues behind it, so only
		// B's own lock attempt can start a gather.
		stale := eng.pool.Get().(*request)
		stale.state.Store(reqAbandoned)
		sh.q <- stale
		resB := make(chan error, 1)
		go func() {
			_, err := eng.Select(x)
			resB <- err
		}()
		awaitSelect(t, resB, "caller B")
		if n := len(sh.q); n != 0 {
			t.Fatalf("%d requests left queued, want 0", n)
		}
	})
}

// TestEngineOwnsNoGoroutine: the engine serves on its callers. Once a storm
// of plain and deadline-carrying Selects has returned, the goroutine count
// is back at its baseline without a Close.
func TestEngineOwnsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 4, MaxBatch: 8, QueueDepth: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(timed bool) {
			defer wg.Done()
			x := []float64{0, 0}
			for i := 0; i < 500; i++ {
				var err error
				if timed {
					_, err = eng.SelectDeadline(x, 50*time.Microsecond)
				} else {
					_, err = eng.Select(x)
				}
				var oe *OverloadError
				if err != nil && !errors.As(err, &oe) {
					t.Error(err)
					return
				}
			}
		}(g%2 == 1)
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the storm, %d before the engine was built", runtime.NumGoroutine(), base)
		}
	}
	eng.Close()
}

// TestEngineCloseRecyclesAbandoned: requests whose callers gave up and that
// no gather has popped yet are recycled by Close, and none is answered.
func TestEngineCloseRecyclesAbandoned(t *testing.T) {
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 2, QueueDepth: 4})
	var stale []*request
	for _, sh := range eng.shards {
		for i := 0; i < 3; i++ {
			r := eng.pool.Get().(*request)
			r.in = []float64{0, 0}
			r.state.Store(reqAbandoned)
			sh.q <- r
			stale = append(stale, r)
		}
	}
	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, sh := range eng.shards {
		if n := len(sh.q); n != 0 {
			t.Errorf("shard %d: %d requests left queued after Close", sh.idx, n)
		}
	}
	for i, r := range stale {
		if r.in != nil {
			t.Errorf("abandoned request %d was not recycled", i)
		}
	}
	if eng.Served() != 0 || eng.Batches() != 0 {
		t.Fatalf("Close answered abandoned requests: served %d in %d batches", eng.Served(), eng.Batches())
	}
}

// TestEngineBatchesUnderLoad: with many closed-loop callers on one shard,
// the gatherer's single yield before flushing lets the callers it just
// answered enqueue again, so batches stay dense without any batching
// window. Without the yield the gatherer wins every race against its
// producers and flushes batches of about one.
func TestEngineBatchesUnderLoad(t *testing.T) {
	const (
		callers = 64
		each    = 300
		// Measured on 2 vCPUs: 1.0–3.6 without the yield; 10–31 with it,
		// also beside a CPU-bound test binary and under -race.
		minAvgBatch = 6
	)
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 1, MaxBatch: 32})
	defer eng.Close()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := []float64{0, 0}
			for i := 0; i < each; i++ {
				if _, err := eng.Select(x); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Served != callers*each {
		t.Fatalf("served %d, want %d", st.Served, callers*each)
	}
	t.Logf("avg batch %.2f over %d batches", st.AvgBatch, st.Batches)
	if st.AvgBatch < minAvgBatch {
		t.Fatalf("avg batch %.2f under %d closed-loop callers, want >= %d", st.AvgBatch, callers, minAvgBatch)
	}
}
