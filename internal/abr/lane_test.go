package abr

import (
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// TestTrainEnvShardedIdentityBitwise: a one-lane env must stay on the
// uniform sampling path — no cursor installed, no extra RNG draws — so its
// trace stream is bit-for-bit NewTrainEnv's.
func TestTrainEnvShardedIdentityBitwise(t *testing.T) {
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	plain := NewTrainEnv(v, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(42))
	identity := newLaneEnv(v, ds, indexTraces(ds), DefaultSessionConfig(), 0.08, mathx.NewRNG(42), 0, 1)
	if identity.cursor != nil {
		t.Fatal("one-lane env installed a cursor; uniform path lost")
	}
	for i := 0; i < 50; i++ {
		plain.Reset()
		identity.Reset()
		if identity.traceIdx != plain.traceIdx {
			t.Fatalf("reset %d: one-lane env drew trace %d, NewTrainEnv drew %d", i, identity.traceIdx, plain.traceIdx)
		}
	}
}

// TestShardedTrainEnvEpochCoverage: with the dataset split across W lane
// envs, lane w streams only traces w, w+W, …, the lanes' trace counts differ
// by at most one, and draining one epoch from every lane touches every trace
// of the dataset exactly once (DESIGN.md §8.3).
func TestShardedTrainEnvEpochCoverage(t *testing.T) {
	v := testVideo(0)
	for _, tc := range []struct{ n, w int }{{7, 2}, {9, 3}, {10, 3}, {10, 10}, {7, 4}, {11, 4}, {12, 3}} {
		ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), tc.n, "fcc")
		seen := make(map[int]int)
		minLen, maxLen := tc.n, 0
		for w := 0; w < tc.w; w++ {
			env := newLaneEnv(v, ds, indexTraces(ds), DefaultSessionConfig(), 0.08, mathx.NewRNG(uint64(100+w)), w, tc.w)
			if env.cursor == nil {
				t.Fatalf("n=%d w=%d: lane env has no cursor", tc.n, tc.w)
			}
			span := env.cursor.Len()
			minLen, maxLen = min(minLen, span), max(maxLen, span)
			for i := 0; i < span; i++ {
				env.Reset()
				if env.traceIdx%tc.w != w {
					t.Fatalf("n=%d w=%d: lane %d streamed trace %d, not round-robin", tc.n, tc.w, w, env.traceIdx)
				}
				seen[env.traceIdx]++
			}
		}
		for pi := 0; pi < tc.n; pi++ {
			if seen[pi] != 1 {
				t.Fatalf("n=%d w=%d: trace %d streamed %d times in one epoch, want exactly 1", tc.n, tc.w, pi, seen[pi])
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("n=%d w=%d: lane trace counts range %d..%d, want balanced", tc.n, tc.w, minLen, maxLen)
		}
	}
}

// TestLaneEnvStateBytes: a lane env's reset seed is byte for byte this —
// its RNG, then its lane and cursor under "lane", keys in this order — which
// is what dist collect frames and checkpoint files carry for it. The cursor
// is the one the last Reset drew from (epoch 1, position 1), not the one a
// step later, and a seed set is reported back unchanged.
func TestLaneEnvStateBytes(t *testing.T) {
	const want = `{"rng":{"state":11400714819323198527},"lane":{"index":1,"count":3,"cursor":{"n":2,"seed":13679457532755275413,"epoch":1,"pos":1}}}`
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 7, "fcc")
	e := newLaneEnv(video, ds, indexTraces(ds), DefaultSessionConfig(), 0.08, mathx.NewRNG(42), 1, 3)
	for ep := 0; ep < 3; ep++ { // three episodes over a two-trace lane: epoch 2
		e.Reset()
		for i := 0; ; i++ {
			if _, _, done := e.Step([]float64{float64(i % video.Levels())}); done {
				break
			}
		}
	}
	e.Reset()
	e.Step([]float64{2})
	got, err := e.ResetSeed()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("lane env seed\n got %s\nwant %s", got, want)
	}
	r := newLaneEnv(video, ds, indexTraces(ds), DefaultSessionConfig(), 0.08, mathx.NewRNG(9), 1, 3)
	if err := r.SetResetSeed([]byte(want)); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.ResetSeed(); string(again) != want {
		t.Fatalf("restored lane env seed\n got %s\nwant %s", again, want)
	}
}

// TestShardedTrainEnvStateRoundTrip mirrors TestTrainEnvStateRoundTrip for a
// lane env: the seed carries the lane's cursor, and a restored env — built
// with a different RNG seed, so its fresh cursor disagrees — replays the
// original's trace stream exactly, across the lane's epoch boundary.
func TestShardedTrainEnvStateRoundTrip(t *testing.T) {
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	cfg := DefaultSessionConfig()
	// Lane 1 of 2 streams 3 traces: 4 episodes cross the epoch boundary.
	a := newLaneEnv(video, ds, indexTraces(ds), cfg, 0.08, mathx.NewRNG(42), 1, 2)
	a.Reset()
	var acts [][]float64
	for i := 0; i < 10; i++ {
		acts = append(acts, []float64{float64(i % video.Levels())})
		a.Step(acts[i])
	}
	if seed, _ := a.ResetSeed(); !strings.Contains(string(seed), `"lane"`) {
		t.Fatalf("lane env seed %s carries no cursor", seed)
	}
	b := newLaneEnv(video, ds, indexTraces(ds), cfg, 0.08, mathx.NewRNG(999), 1, 2)
	replayOnto(t, a, b, acts)
	stepInLockstep(t, a, b, 4)
	if a.traceIdx%2 != 1 {
		t.Fatalf("lane 1/2 env streamed trace %d", a.traceIdx)
	}
}

// TestShardedEnvStateRejects: restoring across mismatched lanes must fail
// loudly rather than silently resampling a different data slice.
func TestShardedEnvStateRejects(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	cfg := DefaultSessionConfig()
	mk := func(lane, lanes int) *TrainEnv {
		return newLaneEnv(video, ds, indexTraces(ds), cfg, 0.08, mathx.NewRNG(7), lane, lanes)
	}
	stateOf := func(e *TrainEnv) []byte {
		st, err := e.ResetSeed()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sharded := stateOf(mk(0, 2))
	plain := stateOf(mk(0, 1))

	if err := mk(0, 1).SetResetSeed(sharded); err == nil {
		t.Fatal("one-lane env accepted a lane-cursor checkpoint")
	}
	if err := mk(0, 2).SetResetSeed(plain); err == nil {
		t.Fatal("lane env accepted a checkpoint without a lane cursor")
	}
	if err := mk(1, 2).SetResetSeed(sharded); err == nil {
		t.Fatal("lane 1/2 env accepted a lane 0/2 checkpoint")
	}
	if err := mk(0, 3).SetResetSeed(sharded); err == nil {
		t.Fatal("lane 0/3 env accepted a lane 0/2 checkpoint")
	}
	// Same lane over a differently-sized dataset: cursor span lies.
	big := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 8, "fcc")
	other := newLaneEnv(video, big, indexTraces(big), cfg, 0.08, mathx.NewRNG(7), 0, 2)
	if err := other.SetResetSeed(sharded); err == nil {
		t.Fatal("lane over 8-trace dataset accepted a cursor spanning 3 traces")
	}
	// A failed restore must leave the env's cursor untouched.
	victim := mk(1, 2)
	before := victim.cursor.State()
	if err := victim.SetResetSeed(sharded); err == nil {
		t.Fatal("mismatched restore accepted")
	}
	if victim.cursor.State() != before {
		t.Fatal("failed restore mutated the env's cursor")
	}
}

// shardedVecFixture builds a 2-lane Pensieve PPO setup with short rollouts,
// deterministically from seed. The dataset (10 traces → 5 per lane) and
// per-lane episode rate put the lane cursors mid-epoch at the checkpoint
// taken 2 iterations in.
func shardedVecFixture(t *testing.T, seed uint64) (*rl.VecRunner, *rl.CategoricalPolicy) {
	t.Helper()
	rng := mathx.NewRNG(seed)
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 10, "fcc")
	policy := rl.NewCategoricalPolicy(NewPensieveNet(rng, v.Levels()))
	value := NewPensieveValueNet(rng, v.Levels())
	cfg := rl.DefaultPPOConfig()
	cfg.RolloutSteps = 128
	cfg.LR = 1e-3
	ppo, err := rl.NewPPO(policy, value, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	rngs := []*mathx.RNG{rng.Split(), rng.Split()}
	runner, err := rl.NewVecRunner(ppo, func(w int) rl.Env {
		return newLaneEnv(v, ds, indexTraces(ds), DefaultSessionConfig(), 0.08, rngs[w], w, 2)
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return runner, policy
}

// TestShardedVecResumeBitwise is the kill-and-resume contract for sharded
// training: a VecRunner checkpoint taken mid-epoch carries every lane's
// cursor, and the resumed run — rebuilt from a different base seed —
// matches the uninterrupted one bitwise, stats and parameters alike.
func TestShardedVecResumeBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	full, fullPol := shardedVecFixture(t, 50)
	fullStats, err := full.Train(4)
	if err != nil {
		t.Fatal(err)
	}

	head, _ := shardedVecFixture(t, 50)
	headStats, err := head.Train(2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := head.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	tail, tailPol := shardedVecFixture(t, 999)
	if err := tail.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	tailStats, err := tail.Train(2)
	if err != nil {
		t.Fatal(err)
	}

	combined := append(append([]rl.IterStats(nil), headStats...), tailStats...)
	if len(combined) != len(fullStats) {
		t.Fatalf("%d resumed iterations, want %d", len(combined), len(fullStats))
	}
	for i := range fullStats {
		if fullStats[i] != combined[i] {
			t.Fatalf("iter %d stats diverge after resume:\nfull    %+v\nresumed %+v", i, fullStats[i], combined[i])
		}
	}
	fp, rp := fullPol.Params(), tailPol.Params()
	for l := range fp {
		for i := range fp[l] {
			if fp[l][i] != rp[l][i] {
				t.Fatalf("policy param [%d][%d] differs after resume: %v vs %v", l, i, fp[l][i], rp[l][i])
			}
		}
	}
}

// TestTrainPensieveShardedSingleWorkerBitwise: rl.Train of PensieveProblem
// at Lanes 1 is TrainPensieve, bit for bit — the one-lane path.
func TestTrainPensieveShardedSingleWorkerBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func(viaTrain bool) []float64 {
		rng := mathx.NewRNG(23)
		v := testVideo(0)
		ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 8, "fcc")
		if !viaTrain {
			agent, _, err := TrainPensieve(v, ds, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			return agent.Policy.Params()[0]
		}
		ppo, _, err := rl.Train(PensieveProblem(v, ds, 0.08), rl.TrainOptions{Iterations: 2, Lanes: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return ppo.Policy.Params()[0]
	}
	p1, p2 := run(true), run(false)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs between W=1 rl.Train and TrainPensieve: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestTrainPensieveShardedReproducible: a fixed-W run is reproducible
// run-to-run (lanes hold private RNG streams and disjoint traces; merge
// order is fixed), and more lanes than traces is an error.
func TestTrainPensieveShardedReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train := func(v *Video, ds *trace.Dataset, iters, lanes int, rng *mathx.RNG) (*rl.PPO, error) {
		ppo, _, err := rl.Train(PensieveProblem(v, ds, 0.08), rl.TrainOptions{Iterations: iters, Lanes: lanes}, rng)
		return ppo, err
	}
	run := func() []float64 {
		rng := mathx.NewRNG(23)
		v := testVideo(0)
		ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 8, "fcc")
		ppo, err := train(v, ds, 2, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		return ppo.Policy.Params()[0]
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs across W=2 runs: %v vs %v", i, p1[i], p2[i])
		}
	}
	// More lanes than traces must error, not deadlock.
	rng := mathx.NewRNG(23)
	v := testVideo(0)
	small := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 3, "fcc")
	if _, err := train(v, small, 1, 4, rng); err == nil {
		t.Fatal("PensieveProblem with more lanes than traces did not error")
	}
}
