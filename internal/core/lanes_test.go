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
	"advnet/internal/routing"
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

// advTrainer is one of the four adversary trainers behind a uniform call, with
// the small base options its rows train under.
type advTrainer struct {
	name  string
	opt   TrainOptions
	train func(opt TrainOptions) (params [][]float64, stats []rl.IterStats, err error)
}

func adversaryTrainers() []advTrainer {
	v := testVideo()
	return []advTrainer{
		{"TrainABRAdversary", TrainOptions{Iterations: 2, RolloutSteps: 96, LR: 1e-3}, func(opt TrainOptions) ([][]float64, []rl.IterStats, error) {
			adv, stats, err := TrainABRAdversary(v, abr.NewBB(), DefaultABRAdversaryConfig(), opt, mathx.NewRNG(51))
			if err != nil {
				return nil, nil, err
			}
			return adv.Policy.Params(), stats, nil
		}},
		{"TrainCCAdversary", TrainOptions{Iterations: 2, RolloutSteps: 200, LR: 1e-3}, func(opt TrainOptions) ([][]float64, []rl.IterStats, error) {
			cfg := DefaultCCAdversaryConfig()
			cfg.EpisodeSteps = 100
			adv, stats, err := TrainCCAdversary(func() netem.CongestionController { return cc.NewBBR() }, cfg, opt, mathx.NewRNG(52))
			if err != nil {
				return nil, nil, err
			}
			return adv.Policy.Params(), stats, nil
		}},
		{"TrainTraceAdversary", TrainOptions{Iterations: 2, RolloutSteps: 8, LR: 3e-3}, func(opt TrainOptions) ([][]float64, []rl.IterStats, error) {
			adv, stats, err := TrainTraceAdversary(v, abr.NewMPC(), DefaultTraceAdversaryConfig(), opt, mathx.NewRNG(53))
			if err != nil {
				return nil, nil, err
			}
			return adv.Policy.Params(), stats, nil
		}},
		{"TrainRoutingAdversary", TrainOptions{Iterations: 2, RolloutSteps: 96, LR: 1e-3}, func(opt TrainOptions) ([][]float64, []rl.IterStats, error) {
			adv, stats, err := TrainRoutingAdversary(routing.Abilene(), routing.SPF{}, abileneEnvConfig(), opt, mathx.NewRNG(54))
			if err != nil {
				return nil, nil, err
			}
			return adv.Policy.Params(), stats, nil
		}},
	}
}

// TestTrainersOneLanePath: the training entry points do not fork on the lane
// count — every lane count goes through the one lane runner. The fingerprints of
// the ABR, CC and trace adversary trainers and of the robust pipeline were
// captured at the last commit that still had the forks: sequential is its
// `Workers ≤ 1` branch (PPO.Train / PPO.TrainCheckpointed), w4 its VecRunner
// branch. The routing trainer's were captured at the last commit before it
// moved onto the rl seam, where it already ran Workers lanes. Lanes 0 and 1
// must land on sequential, 4 on w4, bitwise, at any GOMAXPROCS (`make cpus`
// runs it at -cpu 1,2,4).
func TestTrainersOneLanePath(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	type golden struct{ sequential, w4 uint64 }
	goldens := map[string]golden{
		"TrainABRAdversary":     {0xa5c577e88f1a5587, 0x38e607565c845217},
		"TrainCCAdversary":      {0x6aab3fe8f1bac54a, 0xaf63dc25eba45c0d},
		"TrainTraceAdversary":   {0x622ebf96dc5ade04, 0x252fb0892ad2754d},
		"TrainRobustPensieve":   {0x3a43f7b0ecb8403f, 0x44524169af7331ec},
		"TrainRoutingAdversary": {0xc65d83936da5c6d1, 0x823068c8589bd320},
	}
	type row struct {
		name  string
		train func(lanes int) (uint64, error)
	}
	trainers := []row{
		{"TrainRobustPensieve", func(lanes int) (uint64, error) {
			v, ds := resumeTestData()
			cfg := resumeTestCfg()
			cfg.Workers = lanes
			res, err := TrainRobustPensieve(v, ds, cfg, mathx.NewRNG(77))
			if err != nil {
				return 0, err
			}
			return trainFingerprint(res.Protocol.Policy.Params(), res.Stats), nil
		}},
	}
	for _, tr := range adversaryTrainers() {
		tr := tr
		trainers = append(trainers, row{tr.name, func(lanes int) (uint64, error) {
			opt := tr.opt
			opt.Lanes = lanes
			params, stats, err := tr.train(opt)
			return trainFingerprint(params, stats), err
		}})
	}
	for _, tr := range trainers {
		g := goldens[tr.name]
		for _, c := range []struct {
			lanes int
			want  uint64
		}{{0, g.sequential}, {1, g.sequential}, {4, g.w4}} {
			got, err := tr.train(c.lanes)
			if err != nil {
				t.Fatalf("%s Lanes=%d: %v", tr.name, c.lanes, err)
			}
			if got != c.want {
				t.Errorf("%s Lanes=%d: fingerprint %#016x, want %#016x", tr.name, c.lanes, got, c.want)
			}
		}
	}
}

// TestAdversaryTrainersHonourEveryOption: all four adversary trainers are the
// one rl.Train, so none can drop a TrainOptions field: more lanes change the
// run reproducibly, a checkpoint directory is written and resumed from, and
// restart selection refuses to share one checkpoint directory.
func TestAdversaryTrainersHonourEveryOption(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	for _, tr := range adversaryTrainers() {
		fingerprint := func(opt TrainOptions) uint64 {
			t.Helper()
			params, stats, err := tr.train(opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", tr.name, opt, err)
			}
			return trainFingerprint(params, stats)
		}
		l1, l4 := tr.opt, tr.opt
		l1.Lanes, l4.Lanes = 1, 4
		if a, b := fingerprint(l4), fingerprint(l4); a != b {
			t.Errorf("%s: Lanes=4 is not reproducible (%#x vs %#x)", tr.name, a, b)
		} else if a == fingerprint(l1) {
			t.Errorf("%s: Lanes=4 trained exactly as Lanes=1 — Lanes ignored", tr.name)
		}

		// One iteration, then a second call resuming towards two: it must
		// execute only the second.
		ck := tr.opt
		ck.Checkpoint = rl.CheckpointConfig{Dir: t.TempDir()}
		ck.Iterations = 1
		fingerprint(ck)
		if _, _, err := (&rl.CheckpointDir{Dir: ck.Checkpoint.Dir}).Latest(); err != nil {
			t.Errorf("%s: no checkpoint written: %v", tr.name, err)
		}
		ck.Iterations = 2
		if _, stats, err := tr.train(ck); err != nil || len(stats) != 1 || stats[0].Iteration != 1 {
			t.Errorf("%s: resumed run executed %d iterations (err %v), want only iteration 1", tr.name, len(stats), err)
		}

		ck.Restarts = 2
		if _, _, err := tr.train(ck); err == nil {
			t.Errorf("%s: Restarts=2 with a checkpoint directory accepted", tr.name)
		}
	}
}
