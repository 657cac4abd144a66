package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/routing"
	"advnet/internal/trace"
)

// replayLane builds a lane over env with small policy and value nets, the
// same nets for the same env shape.
func replayLane(t *testing.T, env rl.Env) *rl.Lane {
	t.Helper()
	rng := mathx.NewRNG(3)
	spec, obs := env.ActionSpec(), env.ObservationSize()
	var policy rl.Policy
	if spec.Discrete {
		policy = rl.NewCategoricalPolicy(nn.NewMLP(rng, []int{obs, 8, spec.N}, nn.Tanh))
	} else {
		policy = rl.NewGaussianPolicy(nn.NewMLP(rng, []int{obs, 8, spec.Dim}, nn.Tanh), -0.5)
	}
	lane, err := rl.NewLane(policy, nn.NewMLP(rng, []int{obs, 8, 1}, nn.Tanh), env, 0.99, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return lane
}

// episodeLen is the length of the first episode a lane over env plays.
func episodeLen(t *testing.T, env rl.Env) int {
	t.Helper()
	lane := replayLane(t, env)
	for n := 1; n <= 200; n++ {
		b, err := lane.Collect(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b.Dones[0] {
			return n
		}
	}
	t.Fatal("no episode ends within 200 steps")
	return 0
}

// replayEnvs builds one fresh environment per case; calling a builder twice
// yields two environments in the same state.
func replayEnvs(t *testing.T) map[string]func() rl.Env {
	envs := map[string]func() rl.Env{}
	video := testVideo()
	targets := map[string]func() abr.Protocol{"pensieve": func() abr.Protocol {
		return abr.NewPensieve(rl.NewCategoricalPolicy(abr.NewPensieveNet(mathx.NewRNG(4), video.Levels())))
	}}
	for _, name := range strings.Split(abr.Names(), "|") {
		targets[name] = func() abr.Protocol {
			p, err := abr.New(name)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	for name, target := range targets {
		envs["ABREnv/"+name] = func() rl.Env { return NewABREnv(video, target(), DefaultABRAdversaryConfig()) }
		envs["traceEnv/"+name] = func() rl.Env {
			return &traceEnv{cfg: DefaultTraceAdversaryConfig(), chunks: video.NumChunks(), video: video, target: target()}
		}
	}
	ccCfg := DefaultCCAdversaryConfig()
	ccCfg.EpisodeSteps = 12
	for _, name := range strings.Split(cc.Names(), "|") {
		newCC := func() netem.CongestionController {
			c, err := cc.New(name)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		envs["CCEnv/"+name] = func() rl.Env { return NewCCEnv(newCC, ccCfg, mathx.NewRNG(5)) }
	}
	routingCfg := abileneEnvConfig()
	routingCfg.Rounds = 6
	envs["RoutingEnv"] = func() rl.Env { return NewRoutingEnv(routing.Abilene(), routing.SPF{}, routingCfg) }
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(3), trace.DefaultFCCLike(), 7, "fcc")
	for _, lanes := range []int{1, 3} {
		envs[fmt.Sprintf("TrainEnv/lanes=%d", lanes)] = func() rl.Env {
			factory, err := abr.PensieveProblem(video, ds, 0.08).Envs(lanes, mathx.NewRNG(6))
			if err != nil {
				t.Fatal(err)
			}
			return factory(lanes - 1)
		}
	}
	return envs
}

// TestLaneReplayResumesEveryEnv is the replay property: a lane cut k steps
// into its second episode — k = 0, mid-episode and the last step — and
// restored into a fresh lane over a fresh env continues to the episode's end
// with observations, actions, rewards, done flags and episode reward bitwise
// those of the uninterrupted lane, and both end in the same state.
func TestLaneReplayResumesEveryEnv(t *testing.T) {
	for name, mk := range replayEnvs(t) {
		t.Run(name, func(t *testing.T) {
			n := episodeLen(t, mk())
			for _, k := range []int{0, n / 2, n - 1} {
				whole := replayLane(t, mk())
				cut, err := whole.Collect(0, n+k) // the first episode whole, then k steps
				if err != nil {
					t.Fatal(err)
				}
				state := cut.End
				if !state.Live || len(state.Actions) != k*mk().ActionSpec().ActionSize() {
					t.Fatalf("k=%d: cut state live %v with %d action values", k, state.Live, len(state.Actions))
				}
				want, err := whole.Collect(0, n-k)
				if err != nil {
					t.Fatal(err)
				}
				resumed := replayLane(t, mk())
				if err := resumed.Restore(state); err != nil {
					t.Fatalf("k=%d: Restore: %v", k, err)
				}
				got, err := resumed.Collect(0, n-k)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Dones[n-k-1] {
					t.Fatalf("k=%d: the resumed episode did not end on its last step", k)
				}
				for _, f := range []struct {
					name      string
					want, got []float64
				}{{"obs", want.Obs, got.Obs}, {"actions", want.Act, got.Act}, {"rewards", want.Rewards, got.Rewards}, {"values", want.Values, got.Values}} {
					for i := range f.want {
						if math.Float64bits(f.want[i]) != math.Float64bits(f.got[i]) {
							t.Fatalf("k=%d: %s[%d] = %v resumed, %v uninterrupted", k, f.name, i, f.got[i], f.want[i])
						}
					}
				}
				for i := range want.Dones {
					if want.Dones[i] != got.Dones[i] {
						t.Fatalf("k=%d: done[%d] = %v resumed, %v uninterrupted", k, i, got.Dones[i], want.Dones[i])
					}
				}
				if math.Float64bits(want.EpRewardSum) != math.Float64bits(got.EpRewardSum) {
					t.Fatalf("k=%d: episode reward %v resumed, %v uninterrupted", k, got.EpRewardSum, want.EpRewardSum)
				}
				a, _ := json.Marshal(want.End)
				b, _ := json.Marshal(got.End)
				if string(a) != string(b) {
					t.Fatalf("k=%d: end state\n resumed %s\n whole   %s", k, b, a)
				}
			}
		})
	}
}

// TestCCAdversaryResumesMidEpisode: a checkpointed two-lane CC adversary
// run stopped after an iteration that ends mid-episode on both lanes, and
// resumed by a fresh process from its checkpoint, trains exactly the
// uninterrupted run: the resumed lanes replay their pending episodes on
// CCEnvs reset from the saved seeds.
func TestCCAdversaryResumesMidEpisode(t *testing.T) {
	cfg := DefaultCCAdversaryConfig()
	cfg.EpisodeSteps = 20
	opt := TrainOptions{Iterations: 3, RolloutSteps: 50, Lanes: 2} // 25 steps a lane: 5 into an episode
	full, fullStats, err := TrainCCAdversary(newBBRf, cfg, opt, mathx.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = rl.CheckpointConfig{Dir: t.TempDir()}
	head := opt
	head.Iterations = 1
	if _, _, err := TrainCCAdversary(newBBRf, cfg, head, mathx.NewRNG(8)); err != nil {
		t.Fatal(err)
	}
	resumed, tailStats, err := TrainCCAdversary(newBBRf, cfg, opt, mathx.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tailStats) != 2 {
		t.Fatalf("resumed run trained %d iterations, want 2", len(tailStats))
	}
	for i, s := range tailStats {
		if s != fullStats[i+1] {
			t.Fatalf("iteration %d after resume:\n%+v\nuninterrupted:\n%+v", i+1, s, fullStats[i+1])
		}
	}
	a, b := full.Policy.Params(), resumed.Policy.Params()
	for l := range a {
		for i := range a[l] {
			if math.Float64bits(a[l][i]) != math.Float64bits(b[l][i]) {
				t.Fatalf("policy param [%d][%d] = %v resumed, %v uninterrupted", l, i, b[l][i], a[l][i])
			}
		}
	}
}
