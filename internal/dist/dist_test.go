package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/retry"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// testSpec is the shared small pensieve workload: big enough to exercise
// multi-episode lanes and pending-episode hand-off, small enough to train
// in milliseconds.
func testSpec() PensieveSpec {
	return PensieveSpec{Seed: 5, DatasetSeed: 21, Traces: 8, RolloutSteps: 64}
}

func testBackoff() retry.Backoff {
	return retry.Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond}
}

// paramsFingerprint hashes the trainer's full parameter vector bitwise.
func paramsFingerprint(p *rl.PPO) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, params := range [][][]float64{p.Policy.Params(), p.Value.Params()} {
		for _, g := range params {
			for _, v := range g {
				bits := math.Float64bits(v)
				for i := 0; i < 8; i++ {
					b[i] = byte(bits >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// localRun trains the same workload in-process through rl.VecRunner — the
// golden baseline every distributed run must match bitwise.
func localRun(t *testing.T, spec PensieveSpec, lanes, iters int) (*rl.PPO, []rl.IterStats) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := LookupDomain("pensieve")
	if err != nil {
		t.Fatal(err)
	}
	ppo, factory, err := dom.NewTrainer(raw, lanes)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ppo.TrainParallel(factory, lanes, iters)
	if err != nil {
		t.Fatal(err)
	}
	return ppo, stats
}

// TestDistPensieveDomainMatchesInProcessTrainer: the "pensieve" domain's
// trainer is the trainer abr.TrainPensieveSharded builds over the video and
// corpus the spec describes — not a look-alike of it. Every other identity
// test in this package compares the coordinator against dom.NewTrainer, so
// this is the one that fails if the domain and the in-process entry point
// are ever assembled separately again.
func TestDistPensieveDomainMatchesInProcessTrainer(t *testing.T) {
	spec := PensieveSpec{Seed: 5, DatasetSeed: 21, Traces: 16}
	video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(spec.DatasetSeed), trace.DefaultFCCLike(), spec.Traces, "fcc-like")
	for _, W := range []int{1, 4} {
		_, inProcess, err := abr.TrainPensieveSharded(video, ds, 2, W, mathx.NewRNG(spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		domain, _ := localRun(t, spec, W, 2)
		if got, want := paramsFingerprint(domain), paramsFingerprint(inProcess); got != want {
			t.Errorf("W=%d: domain trainer fingerprint %#x, abr.TrainPensieveSharded %#x", W, got, want)
		}
	}
}

// newTestCoordinator builds a coordinator for the shared workload on an
// ephemeral port.
func newTestCoordinator(t *testing.T, spec PensieveSpec, lanes, iters int, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := testConfig(t, spec, lanes, iters)
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testConfig(t *testing.T, spec PensieveSpec, lanes, iters int) Config {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Domain:     "pensieve",
		Spec:       raw,
		Lanes:      lanes,
		Iterations: iters,
		Backoff:    testBackoff(),
	}
}

// startWorker runs an in-process worker against the coordinator; the
// returned channel carries RunWorker's exit error.
func startWorker(t *testing.T, addr string) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{Addr: addr, Backoff: testBackoff(), MaxDialAttempts: 50})
	}()
	return done
}

// waitWorkerExit asserts a worker shut down cleanly (coordinator sent
// MsgShutdown) within a bounded wait.
func waitWorkerExit(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

func assertStatsEqual(t *testing.T, got, want []rl.IterStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d iterations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iter %d stats diverge:\ndist %+v\nvec  %+v", i, got[i], want[i])
		}
	}
}

// TestDistGoldenFingerprint is the tentpole acceptance test: a coordinator
// driving real worker processes' lanes over real TCP produces
// bitwise-identical per-iteration stats and final parameters to an
// in-process rl.VecRunner with the same lane count, for W ∈ {1, 4}.
func TestDistGoldenFingerprint(t *testing.T) {
	for _, W := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", W), func(t *testing.T) {
			const iters = 3
			spec := testSpec()
			vec, vecStats := localRun(t, spec, W, iters)

			c := newTestCoordinator(t, spec, W, iters, nil)
			worker := startWorker(t, c.Addr())
			stats, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			waitWorkerExit(t, worker)

			assertStatsEqual(t, stats, vecStats)
			if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
				t.Fatalf("dist fingerprint %#x, vec %#x", got, want)
			}
		})
	}
}

// TestDistWorkerCountInvariance: the process count is a pure throughput
// knob. W=4 lanes served by one worker connection, by two (2+2 lanes, each
// pair side by side) and by three produce identical stats and parameters
// (all equal to the VecRunner golden).
func TestDistWorkerCountInvariance(t *testing.T) {
	const W, iters = 4, 3
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, iters)
	want := paramsFingerprint(vec)

	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			c := newTestCoordinator(t, spec, W, iters, nil)
			var workers []chan error
			for i := 0; i < procs; i++ {
				workers = append(workers, startWorker(t, c.Addr()))
			}
			stats, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				waitWorkerExit(t, w)
			}
			assertStatsEqual(t, stats, vecStats)
			if got := paramsFingerprint(c.Trainer()); got != want {
				t.Fatalf("%d-worker fingerprint %#x, vec %#x", procs, got, want)
			}
		})
	}
}

// TestDistNoWorkersTypedError: a coordinator with no workers fails its run
// with *NoWorkersError instead of hanging.
func TestDistNoWorkersTypedError(t *testing.T) {
	c := newTestCoordinator(t, testSpec(), 2, 1, func(cfg *Config) {
		cfg.WaitRounds = 3
	})
	_, err := c.Run()
	var nw *NoWorkersError
	if !errors.As(err, &nw) {
		t.Fatalf("got %v, want *NoWorkersError", err)
	}
}

// --- mini domain: deterministic lane-failure coverage ----------------------

// miniEnv is a trivial continuous-control environment whose whole state is
// two counters; panicAt >= 0 makes Step panic at that step index, modelling
// a deterministic environment bug, and nanAt > 0 makes the reward of that
// lifetime step NaN, modelling a numerically broken one.
type miniEnv struct {
	step    int
	total   int // lifetime steps, across episodes
	live    bool
	horizon int
	panicAt int
	nanAt   int
}

func (e *miniEnv) obs() []float64 { return []float64{float64(e.step) / float64(e.horizon)} }

func (e *miniEnv) Reset() []float64 {
	e.step = 0
	e.live = true
	return e.obs()
}

func (e *miniEnv) Step(action []float64) ([]float64, float64, bool) {
	if e.panicAt >= 0 && e.step == e.panicAt {
		panic("mini env: injected deterministic failure")
	}
	e.step++
	e.total++
	d := action[0] - 1.2
	if e.total == e.nanAt {
		d = math.NaN()
	}
	return e.obs(), -d * d, e.step >= e.horizon
}

func (e *miniEnv) ObservationSize() int      { return 1 }
func (e *miniEnv) ActionSpec() rl.ActionSpec { return rl.ActionSpec{Dim: 1} }

type miniEnvState struct {
	Step  int  `json:"step"`
	Total int  `json:"total"`
	Live  bool `json:"live"`
}

func (e *miniEnv) EnvState() ([]byte, error) {
	return json.Marshal(miniEnvState{Step: e.step, Total: e.total, Live: e.live})
}

func (e *miniEnv) SetEnvState(data []byte) error {
	var st miniEnvState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	e.step, e.total, e.live = st.Step, st.Total, st.Live
	return nil
}

// miniSpec parameterizes the test-only "mini" domain.
type miniSpec struct {
	Seed         uint64 `json:"seed"`
	RolloutSteps int    `json:"rollout_steps"`
	PanicAt      int    `json:"panic_at"` // -1 = healthy
	NaNAt        int    `json:"nan_at"`   // 0 = healthy
}

func (s miniSpec) env() *miniEnv {
	return &miniEnv{horizon: 9, panicAt: s.PanicAt, nanAt: s.NaNAt}
}

func init() { domains["mini"] = miniProblem }

// miniProblem is the test-only "mini" domain: a spec decoder, like every
// domain.
func miniProblem(raw json.RawMessage) (rl.Problem, uint64, error) {
	var spec miniSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return rl.Problem{}, 0, err
	}
	cfg := rl.DefaultPPOConfig()
	cfg.RolloutSteps = spec.RolloutSteps
	cfg.MinibatchSize = 16
	return rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			policy := rl.NewGaussianPolicy(nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh), -0.5)
			policy.MaxLogStd = 0
			return policy, nn.NewMLP(rng, []int{1, 8, 1}, nn.Tanh)
		},
		Config: cfg,
		Envs: func(int, *mathx.RNG) (rl.EnvFactory, error) {
			return func(int) rl.Env { return spec.env() }, nil
		},
	}, spec.Seed, nil
}

// rendezvous holds every lane's first Step until want lanes have arrived,
// or fails it after five seconds.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	want    int
	all     chan struct{}
}

func newRendezvous(want int) *rendezvous { return &rendezvous{want: want, all: make(chan struct{})} }

func (r *rendezvous) arrive() {
	r.mu.Lock()
	if r.arrived++; r.arrived == r.want {
		close(r.all)
	}
	r.mu.Unlock()
	select {
	case <-r.all:
	case <-time.After(5 * time.Second):
		r.mu.Lock()
		defer r.mu.Unlock()
		panic(fmt.Sprintf("rendezvous: %d of %d lanes arrived within 5 s", r.arrived, r.want))
	}
}

// sideBySide is the rendezvous of the "rendezvous" domain's envs, set by the
// test that runs it.
var sideBySide *rendezvous

// rendezvousEnv is a miniEnv whose first Step waits at sideBySide.
type rendezvousEnv struct {
	*miniEnv
	r      *rendezvous
	waited bool
}

func (e *rendezvousEnv) Step(action []float64) ([]float64, float64, bool) {
	if !e.waited {
		e.waited = true
		e.r.arrive()
	}
	return e.miniEnv.Step(action)
}

// The test-only "rendezvous" domain is "mini" on rendezvousEnvs.
func init() {
	domains["rendezvous"] = func(raw json.RawMessage) (rl.Problem, uint64, error) {
		pr, seed, err := miniProblem(raw)
		envs := pr.Envs
		pr.Envs = func(lanes int, rng *mathx.RNG) (rl.EnvFactory, error) {
			factory, err := envs(lanes, rng)
			if err != nil {
				return nil, err
			}
			return func(i int) rl.Env { return &rendezvousEnv{miniEnv: factory(i).(*miniEnv), r: sideBySide} }, nil
		}
		return pr, seed, err
	}
}

// TestWorkerCollectsLanesSideBySide: one worker serving four lanes runs
// them at once. Every lane's first Step waits until all four have arrived,
// so a worker that ran its lanes one after another would fail the run with
// a *LaneError after five seconds.
func TestWorkerCollectsLanesSideBySide(t *testing.T) {
	const W = 4
	sideBySide = newRendezvous(W)
	raw, _ := json.Marshal(miniSpec{Seed: 77, RolloutSteps: 40, PanicAt: -1})
	c, err := NewCoordinator(Config{
		Domain: "rendezvous", Spec: raw, Lanes: W, Iterations: 1, Backoff: testBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	worker := startWorker(t, c.Addr())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, worker)
}

// TestDistMiniDomainGolden: the registry's second domain trains bitwise
// golden too — the equivalence is a property of the substrate, not of the
// pensieve adapter.
func TestDistMiniDomainGolden(t *testing.T) {
	const W, iters = 4, 4
	spec := miniSpec{Seed: 77, RolloutSteps: 40, PanicAt: -1}
	raw, _ := json.Marshal(spec)
	dom, err := LookupDomain("mini")
	if err != nil {
		t.Fatal(err)
	}
	vec, factory, err := dom.NewTrainer(raw, W)
	if err != nil {
		t.Fatal(err)
	}
	vecStats, err := vec.TrainParallel(factory, W, iters)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(Config{
		Domain: "mini", Spec: raw, Lanes: W, Iterations: iters, Backoff: testBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	worker := startWorker(t, c.Addr())
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, worker)
	assertStatsEqual(t, stats, vecStats)
	if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("mini dist fingerprint %#x, vec %#x", got, want)
	}
}

// TestDistLaneErrorAborts: a deterministic in-lane failure (environment
// panic) is reported over the wire, surfaces as a typed *LaneError, aborts
// the run — and does NOT kill the worker process, which exits cleanly on
// the connection close instead of by crashing.
func TestDistLaneErrorAborts(t *testing.T) {
	raw, _ := json.Marshal(miniSpec{Seed: 77, RolloutSteps: 40, PanicAt: 5})
	c, err := NewCoordinator(Config{
		Domain: "mini", Spec: raw, Lanes: 2, Iterations: 2, Backoff: testBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	worker := startWorker(t, c.Addr())
	_, err = c.Run()
	var le *LaneError
	if !errors.As(err, &le) {
		t.Fatalf("got %v, want *LaneError", err)
	}
	c.Close() // closes the worker's conn; the worker must exit via its dial cap
	select {
	case <-worker:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after coordinator close")
	}
}

// TestDistDivergenceRollsBack: the coordinator runs the trainer's crash-safe
// loop, so a lane whose rewards go NaN in iteration 2 aborts the run with a
// typed *rl.DivergenceError instead of training on (and checkpointing) NaN
// parameters: the trainer and lane states are rolled back to the iteration-2
// checkpoint, and no checkpoint of the poisoned iteration exists.
func TestDistDivergenceRollsBack(t *testing.T) {
	dir := t.TempDir()
	// 2 lanes x 20 steps per iteration: a lane's 47th step is in iteration 2,
	// inside an episode (steps 46-54) that ends before the iteration does.
	raw, _ := json.Marshal(miniSpec{Seed: 77, RolloutSteps: 40, PanicAt: -1, NaNAt: 47})
	c, err := NewCoordinator(Config{
		Domain: "mini", Spec: raw, Lanes: 2, Iterations: 5, Backoff: testBackoff(),
		Checkpoint: rl.CheckpointConfig{Dir: dir, Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	worker := startWorker(t, c.Addr())
	stats, err := c.Run()
	var de *rl.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want *rl.DivergenceError", err)
	}
	if de.Iteration != 2 || !de.RolledBack {
		t.Fatalf("divergence at iteration %d (rolled back: %v), want 2 rolled back", de.Iteration, de.RolledBack)
	}
	if len(stats) != 2 || c.Iteration() != 2 {
		t.Fatalf("%d healthy iterations returned, trainer at %d, want 2 and 2", len(stats), c.Iteration())
	}
	for _, params := range [][][]float64{c.Trainer().Policy.Params(), c.Trainer().Value.Params()} {
		for _, g := range params {
			for _, v := range g {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("non-finite parameter survived the rollback")
				}
			}
		}
	}
	if _, iter, err := (&rl.CheckpointDir{Dir: dir}).Latest(); err != nil || iter != 2 {
		t.Fatalf("newest checkpoint is iteration %d (%v), want 2: the poisoned iteration must not be saved", iter, err)
	}
	c.Close()
	select {
	case <-worker:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after coordinator close")
	}
}

// TestDistUnknownDomainTyped: the registry rejects unknown domains with the
// typed error on both construction paths.
func TestDistUnknownDomainTyped(t *testing.T) {
	_, err := NewCoordinator(Config{Domain: "no-such-domain", Lanes: 1, Iterations: 1})
	var ud *UnknownDomainError
	if !errors.As(err, &ud) {
		t.Fatalf("got %v, want *UnknownDomainError", err)
	}
	if _, err := LookupDomain("also-missing"); !errors.As(err, &ud) {
		t.Fatalf("lookup: got %v, want *UnknownDomainError", err)
	}
}
