package serve

import (
	"errors"
	"sync"
	"testing"

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

func TestEngineMatchesPredictArgmax(t *testing.T) {
	for _, gemm := range []bool{true, false} {
		rng := mathx.NewRNG(42)
		net := nn.NewMLP(rng, []int{6, 16, 4}, nn.Tanh)
		reg := NewRegistry(net)
		eng := MustNewEngine(reg, Config{Workers: 2, MaxBatch: 8, NoGEMM: !gemm})

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
				t.Fatalf("gemm=%v iter %d: engine level %d, Predict argmax %d", gemm, i, d.Level, want)
			}
			if d.Snapshot != 1 {
				t.Fatalf("snapshot id %d, want 1", d.Snapshot)
			}
		}
		eng.Close()
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
	for i := 0; i < 8; i++ { // the 8th request is latency-sampled
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
	eng := MustNewEngine(NewRegistry(rigged(2, 3, 1)), Config{Workers: 1, MaxBatch: 4, FlushImmediately: true})
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
	// Immediate-flush mode so sequential Selects complete without a batching
	// window; one worker so the path is deterministic.
	eng := MustNewEngine(NewRegistry(rigged(4, 3, 0)), Config{Workers: 1, MaxBatch: 8, FlushImmediately: true})
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
