package core

import (
	"hash/fnv"
	"math"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/rl"
)

// trainFingerprint hashes trained parameters and the iteration statistics
// bitwise.
func trainFingerprint(params [][]float64, stats []rl.IterStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	wf := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, g := range params {
		for _, v := range g {
			wf(v)
		}
	}
	for _, st := range stats {
		for _, v := range []float64{
			float64(st.Iteration), float64(st.Steps), float64(st.Episodes), st.MeanEpReward, st.MeanStepRew,
			st.PolicyLoss, st.ValueLoss, st.Entropy, st.ClipFraction, st.ApproxKL, float64(st.GradStepCount),
		} {
			wf(v)
		}
	}
	return h.Sum64()
}

// TestTrainersOneLanePath: the training entry points no longer fork on
// Workers — every worker count goes through the one lane runner. The
// fingerprints were captured at the last commit that still had the forks:
// sequential is its `Workers ≤ 1` branch (PPO.Train / PPO.TrainCheckpointed),
// w4 its VecRunner branch. Workers 0 and 1 must land on the former, 4 on the
// latter, bitwise.
func TestTrainersOneLanePath(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	v := testVideo()
	trainers := []struct {
		name           string
		sequential, w4 uint64
		train          func(workers int) (uint64, error)
	}{
		{"TrainABRAdversary", 0xa5c577e88f1a5587, 0x38e607565c845217, func(workers int) (uint64, error) {
			opt := ABRTrainOptions{Iterations: 2, RolloutSteps: 96, LR: 1e-3, Workers: workers}
			adv, stats, err := TrainABRAdversary(v, abr.NewBB(), DefaultABRAdversaryConfig(), opt, mathx.NewRNG(51))
			if err != nil {
				return 0, err
			}
			return trainFingerprint(adv.Policy.Params(), stats), nil
		}},
		{"TrainCCAdversary", 0x6aab3fe8f1bac54a, 0xaf63dc25eba45c0d, func(workers int) (uint64, error) {
			cfg := DefaultCCAdversaryConfig()
			cfg.EpisodeSteps = 100
			opt := CCTrainOptions{Iterations: 2, RolloutSteps: 200, LR: 1e-3, Workers: workers}
			adv, stats, err := TrainCCAdversary(func() netem.CongestionController { return cc.NewBBR() }, cfg, opt, mathx.NewRNG(52))
			if err != nil {
				return 0, err
			}
			return trainFingerprint(adv.Policy.Params(), stats), nil
		}},
		{"TrainTraceAdversary", 0x622ebf96dc5ade04, 0x252fb0892ad2754d, func(workers int) (uint64, error) {
			opt := TraceTrainOptions{Iterations: 2, RolloutSteps: 8, LR: 3e-3, Workers: workers}
			adv, stats, err := TrainTraceAdversary(v, abr.NewMPC(), DefaultTraceAdversaryConfig(), opt, mathx.NewRNG(53))
			if err != nil {
				return 0, err
			}
			return trainFingerprint(adv.Policy.Params(), stats), nil
		}},
		{"TrainRobustPensieve", 0x3a43f7b0ecb8403f, 0x44524169af7331ec, func(workers int) (uint64, error) {
			_, ds := resumeTestData()
			cfg := resumeTestCfg()
			cfg.Workers = workers
			cfg.ShardTraces = true
			res, err := TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
			if err != nil {
				return 0, err
			}
			return trainFingerprint(res.Protocol.Policy.Params(), res.Stats), nil
		}},
	}
	for _, tr := range trainers {
		for _, c := range []struct {
			workers int
			want    uint64
		}{{0, tr.sequential}, {1, tr.sequential}, {4, tr.w4}} {
			got, err := tr.train(c.workers)
			if err != nil {
				t.Fatalf("%s Workers=%d: %v", tr.name, c.workers, err)
			}
			if got != c.want {
				t.Errorf("%s Workers=%d: fingerprint %#016x, want %#016x", tr.name, c.workers, got, c.want)
			}
		}
	}
}
