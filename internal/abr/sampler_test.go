package abr

import (
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// TestTrainEnvShardedIdentityBitwise: a nil or identity shard must leave the
// env on the historical sampling path — no sampler installed, no extra RNG
// draws — so its trace stream is bit-for-bit the unsharded env's.
func TestTrainEnvShardedIdentityBitwise(t *testing.T) {
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	plain := NewTrainEnv(v, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(42))
	identity := NewTrainEnvSharded(v, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(42), ds.Shard(0, 1))
	nilShard := NewTrainEnvSharded(v, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(42), nil)
	if identity.sampler != nil || nilShard.sampler != nil {
		t.Fatal("identity/nil shard installed a sampler; historical path lost")
	}
	for i := 0; i < 50; i++ {
		plain.Reset()
		identity.Reset()
		nilShard.Reset()
		if identity.traceIdx != plain.traceIdx || nilShard.traceIdx != plain.traceIdx {
			t.Fatalf("reset %d: identity/nil-shard envs drew traces %d/%d, unsharded drew %d",
				i, identity.traceIdx, nilShard.traceIdx, plain.traceIdx)
		}
	}
}

// TestShardedTrainEnvEpochCoverage: with the dataset partitioned across W
// sharded envs, draining one epoch from each env's sampler touches every
// trace of the parent dataset exactly once (DESIGN.md §8.3).
func TestShardedTrainEnvEpochCoverage(t *testing.T) {
	v := testVideo(0)
	for _, tc := range []struct{ n, w int }{{7, 2}, {9, 3}} {
		ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), tc.n, "fcc")
		sd, err := trace.NewShardedDataset(ds, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for w := 0; w < tc.w; w++ {
			env := NewTrainEnvSharded(v, ds, DefaultSessionConfig(), 0.08, mathx.NewRNG(uint64(100+w)), sd.Shard(w))
			if env.sampler == nil {
				t.Fatalf("n=%d w=%d: sharded env has no sampler", tc.n, tc.w)
			}
			for i := 0; i < sd.Shard(w).Len(); i++ {
				env.Reset()
				seen[env.traceIdx]++
			}
		}
		for pi := 0; pi < tc.n; pi++ {
			if seen[pi] != 1 {
				t.Fatalf("n=%d w=%d: trace %d streamed %d times in one epoch, want exactly 1", tc.n, tc.w, pi, seen[pi])
			}
		}
	}
}

// TestShardedTrainEnvStateRoundTrip mirrors TestTrainEnvStateRoundTrip for a
// sharded env: the checkpoint carries the shard cursor, and a restored env —
// built with a different RNG seed, so its fresh cursor disagrees — replays the
// original's trace stream exactly, across the shard's epoch boundary.
func TestShardedTrainEnvStateRoundTrip(t *testing.T) {
	video := testVideo(0.1)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	cfg := DefaultSessionConfig()
	shard := ds.Shard(1, 2) // 3 traces: 4 episodes cross the epoch boundary

	a := NewTrainEnvSharded(video, ds, cfg, 0.08, mathx.NewRNG(42), shard)
	a.Reset()
	for i := 0; i < 10; i++ {
		a.Step([]float64{float64(i % video.Levels())})
	}
	state, err := a.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}
	if !strings.Contains(string(state), `"shard"`) {
		t.Fatalf("sharded env state %s carries no shard cursor", state)
	}

	b := NewTrainEnvSharded(video, ds, cfg, 0.08, mathx.NewRNG(999), shard)
	if err := b.SetEnvState(state); err != nil {
		t.Fatalf("SetEnvState: %v", err)
	}

	episodes := 0
	for step := 0; episodes < 4 && step < 10_000; step++ {
		act := []float64{float64(step % video.Levels())}
		ao, ar, ad := a.Step(act)
		bo, br, bd := b.Step(act)
		if ar != br || ad != bd {
			t.Fatalf("step %d diverged: reward %v vs %v, done %v vs %v", step, ar, br, ad, bd)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("step %d obs[%d] diverged: %v vs %v", step, j, ao[j], bo[j])
			}
		}
		if ad {
			episodes++
			ra, rb := a.Reset(), b.Reset()
			if a.traceIdx != b.traceIdx {
				t.Fatalf("episode %d sampled different traces: %d vs %d", episodes, a.traceIdx, b.traceIdx)
			}
			if a.traceIdx%2 != 1 {
				t.Fatalf("episode %d: shard 1/2 env streamed parent trace %d", episodes, a.traceIdx)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("reset obs[%d] diverged", j)
				}
			}
		}
	}
	if episodes != 4 {
		t.Fatalf("only %d episodes completed", episodes)
	}
}

// TestShardedEnvStateRejects: restoring across mismatched shard assignments
// must fail loudly rather than silently resampling a different data slice.
func TestShardedEnvStateRejects(t *testing.T) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 6, "fcc")
	cfg := DefaultSessionConfig()
	mk := func(shard *trace.Shard) *TrainEnv {
		return NewTrainEnvSharded(video, ds, cfg, 0.08, mathx.NewRNG(7), shard)
	}
	stateOf := func(e *TrainEnv) []byte {
		st, err := e.EnvState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sharded := stateOf(mk(ds.Shard(0, 2)))
	plain := stateOf(mk(nil))

	if err := mk(nil).SetEnvState(sharded); err == nil {
		t.Fatal("unsharded env accepted a shard-cursor checkpoint")
	}
	if err := mk(ds.Shard(0, 2)).SetEnvState(plain); err == nil {
		t.Fatal("sharded env accepted a checkpoint without a shard cursor")
	}
	if err := mk(ds.Shard(1, 2)).SetEnvState(sharded); err == nil {
		t.Fatal("shard 1/2 env accepted a shard 0/2 checkpoint")
	}
	if err := mk(ds.Shard(0, 3)).SetEnvState(sharded); err == nil {
		t.Fatal("shard 0/3 env accepted a shard 0/2 checkpoint")
	}
	// Same shard identity over a differently-sized dataset: cursor span lies.
	big := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 8, "fcc")
	other := NewTrainEnvSharded(video, big, cfg, 0.08, mathx.NewRNG(7), big.Shard(0, 2))
	if err := other.SetEnvState(sharded); err == nil {
		t.Fatal("shard over 8-trace dataset accepted a cursor spanning 3 traces")
	}
	// A failed restore must leave the env's cursor untouched.
	victim := mk(ds.Shard(1, 2))
	before := victim.sampler.cursor.State()
	if err := victim.SetEnvState(sharded); err == nil {
		t.Fatal("mismatched restore accepted")
	}
	if victim.sampler.cursor.State() != before {
		t.Fatal("failed restore mutated the env's cursor")
	}
}

// shardedVecFixture builds a 2-worker sharded Pensieve PPO setup with short
// rollouts, deterministically from seed. The dataset (10 traces → shard
// length 5) and per-worker episode rate put the shard cursors mid-epoch at
// the checkpoint taken 2 iterations in.
func shardedVecFixture(t *testing.T, seed uint64) (*rl.VecRunner, *rl.CategoricalPolicy) {
	t.Helper()
	rng := mathx.NewRNG(seed)
	v := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 10, "fcc")
	sd, err := trace.NewShardedDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
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
		return NewTrainEnvSharded(v, ds, DefaultSessionConfig(), 0.08, rngs[w], sd.Shard(w))
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return runner, policy
}

// TestShardedVecResumeBitwise is the kill-and-resume contract for sharded
// training: a VecRunner checkpoint taken mid-epoch carries every worker's
// shard cursor, and the resumed run — rebuilt from a different base seed —
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

// TestTrainPensieveShardedSingleWorkerBitwise: workers ≤ 1 must take the
// single-threaded TrainPensieve path untouched — the W=1 historical-bitwise
// guarantee of the sharding contract.
func TestTrainPensieveShardedSingleWorkerBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func(sharded bool) []float64 {
		rng := mathx.NewRNG(23)
		v := testVideo(0)
		ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 8, "fcc")
		var agent *Pensieve
		var err error
		if sharded {
			agent, _, err = TrainPensieveSharded(v, ds, 2, 1, rng)
		} else {
			agent, _, err = TrainPensieve(v, ds, 2, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		return agent.Policy.Params()[0]
	}
	p1, p2 := run(true), run(false)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs between sharded W=1 and TrainPensieve: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestTrainPensieveShardedReproducible: a fixed-W sharded run is reproducible
// run-to-run (workers hold private RNG streams and disjoint shards; merge
// order is fixed).
func TestTrainPensieveShardedReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func() []float64 {
		rng := mathx.NewRNG(23)
		v := testVideo(0)
		ds := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 8, "fcc")
		agent, _, err := TrainPensieveSharded(v, ds, 2, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		return agent.Policy.Params()[0]
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs across sharded W=2 runs: %v vs %v", i, p1[i], p2[i])
		}
	}
	// Oversharding (more workers than traces) must error, not deadlock.
	rng := mathx.NewRNG(23)
	v := testVideo(0)
	small := trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 3, "fcc")
	if _, _, err := TrainPensieveSharded(v, small, 1, 4, rng); err == nil {
		t.Fatal("TrainPensieveSharded with more workers than traces did not error")
	}
}
