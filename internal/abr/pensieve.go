package abr

import (
	"encoding/json"
	"fmt"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// FeatureHistory is the number of past chunks whose throughput and download
// time appear in the Pensieve state (Pensieve uses 8).
const FeatureHistory = 8

// FeatureSize returns the Pensieve input dimension for a given ladder size.
func FeatureSize(levels int) int {
	return 1 + 1 + FeatureHistory + FeatureHistory + levels + 1
}

// Features encodes the protocol-visible session state into the normalized
// feature vector the Pensieve-style agent consumes:
//
//	[ last bitrate/max, buffer/10s,
//	  throughput history (Mbps/5, oldest→newest, zero-padded),
//	  download-time history (s/10, zero-padded),
//	  next chunk sizes (Mbit/5),
//	  chunks remaining / total ]
func Features(o *Observation) []float64 {
	return FeaturesInto(make([]float64, 0, FeatureSize(o.Levels)), o)
}

// FeaturesInto is Features written over dst[:0], growing it only when its
// capacity is short, so a caller that recycles one buffer encodes without
// allocating. It returns the encoded slice.
func FeaturesInto(dst []float64, o *Observation) []float64 {
	levels := o.Levels
	out := dst[:0]
	maxMbps := o.BitratesKbps[levels-1] / 1000

	lastMbps := 0.0
	if o.LastLevel >= 0 {
		lastMbps = o.BitratesKbps[o.LastLevel] / 1000
	}
	out = append(out, lastMbps/maxMbps)
	out = append(out, o.BufferS/10)

	th := o.ThroughputHist
	dl := o.DownloadHist
	if len(th) > FeatureHistory {
		th = th[len(th)-FeatureHistory:]
		dl = dl[len(dl)-FeatureHistory:]
	}
	for i := 0; i < FeatureHistory-len(th); i++ {
		out = append(out, 0)
	}
	for _, v := range th {
		out = append(out, v/5)
	}
	for i := 0; i < FeatureHistory-len(dl); i++ {
		out = append(out, 0)
	}
	for _, v := range dl {
		out = append(out, v/10)
	}
	for _, s := range o.NextSizesBits {
		out = append(out, s/1e6/5) // megabits, scaled
	}
	out = append(out, float64(o.TotalChunks-o.ChunkIndex)/float64(o.TotalChunks))
	return out
}

// Pensieve is the RL-based ABR protocol of Mao et al. [17], reproduced as a
// categorical PPO policy over the bitrate ladder with Pensieve's state
// features. The agent acts deterministically (distribution mode) when used
// as a Protocol.
type Pensieve struct {
	Policy *rl.CategoricalPolicy
	label  string
	feat   []float64 // the features SelectLevel encodes, reused every chunk
}

// NewPensieveNet builds a fresh policy network for a ladder with the given
// number of levels.
func NewPensieveNet(rng *mathx.RNG, levels int) *nn.MLP {
	return nn.NewMLP(rng, []int{FeatureSize(levels), 64, 32, levels}, nn.Tanh)
}

// NewPensieveValueNet builds the matching value network.
func NewPensieveValueNet(rng *mathx.RNG, levels int) *nn.MLP {
	return nn.NewMLP(rng, []int{FeatureSize(levels), 64, 32, 1}, nn.Tanh)
}

// NewPensieve wraps a trained policy as an ABR protocol.
func NewPensieve(policy *rl.CategoricalPolicy) *Pensieve {
	return &Pensieve{Policy: policy, label: "pensieve"}
}

// Name implements Protocol.
func (p *Pensieve) Name() string { return p.label }

// Reset implements Protocol (the policy is stateless between chunks).
func (p *Pensieve) Reset() {}

// SelectLevel implements Protocol.
func (p *Pensieve) SelectLevel(o *Observation) int {
	p.feat = FeaturesInto(p.feat, o)
	a := p.Policy.Mode(p.feat)
	return clampLevel(int(a[0]), o.Levels)
}

// TrainEnv adapts ABR streaming over a trace dataset into an rl.Env for
// training Pensieve: each episode streams one full video over one trace
// sampled from the dataset, the action is the level of the next chunk, and
// the reward is that chunk's linear QoE.
type TrainEnv struct {
	Video      *Video
	Dataset    *trace.Dataset
	Cfg        SessionConfig
	RTTSeconds float64

	rng         *mathx.RNG
	lane, lanes int           // a lane env's lane of a lanes-wide run
	cursor      *trace.Cursor // a lane env's traces; nil on a one-lane env
	seedRNG     mathx.RNGState
	seedCursor  trace.CursorState // with seedRNG, the state the last Reset drew from
	index       traceIndexes      // the dataset's trace indexes, shared by a problem's lanes
	session     *Session
	traceIdx    int         // dataset index of the current session's trace; -1 when none
	obs         Observation // the session's view, refilled each chunk
	feat        []float64   // the observation Reset and Step return
}

// NewTrainEnv builds a training environment that samples traces uniformly
// from dataset.
func NewTrainEnv(video *Video, dataset *trace.Dataset, cfg SessionConfig, rttS float64, rng *mathx.RNG) *TrainEnv {
	return newLaneEnv(video, dataset, indexTraces(dataset), cfg, rttS, rng, 0, 1)
}

// newLaneEnv is the env of lane `lane` of a lanes-wide run (DESIGN.md §8.3):
// it streams traces lane, lane+lanes, lane+2·lanes, … in epoch-reshuffled
// order, its cursor seeded from one draw of rng. A one-lane env draws nothing
// here and samples the whole dataset uniformly. index holds the dataset's
// trace indexes (indexTraces).
func newLaneEnv(video *Video, dataset *trace.Dataset, index traceIndexes, cfg SessionConfig, rttS float64, rng *mathx.RNG, lane, lanes int) *TrainEnv {
	if len(dataset.Traces) == 0 {
		panic("abr: TrainEnv with empty dataset")
	}
	e := &TrainEnv{Video: video, Dataset: dataset, Cfg: cfg, RTTSeconds: rttS, rng: rng, index: index, traceIdx: -1}
	if lanes > 1 {
		e.lane, e.lanes = lane, lanes
		e.cursor = trace.NewCursor(trace.LaneLen(len(dataset.Traces), lane, lanes), rng.Uint64())
	}
	e.markSeed()
	return e
}

// markSeed records what the next Reset draws from, as values.
func (e *TrainEnv) markSeed() {
	e.seedRNG = e.rng.State()
	if e.cursor != nil {
		e.seedCursor = e.cursor.State()
	}
}

// Reset implements rl.Env. A lane env takes the next trace of its lane from
// its cursor; a one-lane env draws uniformly from the whole dataset with its
// own RNG.
func (e *TrainEnv) Reset() []float64 {
	e.markSeed()
	if e.cursor != nil {
		e.traceIdx = e.lane + e.cursor.Next()*e.lanes
	} else {
		e.traceIdx = e.rng.Intn(len(e.Dataset.Traces))
	}
	tr := e.Dataset.Traces[e.traceIdx]
	link := &TraceLink{Trace: tr, RTTSeconds: e.RTTSeconds}
	if e.traceIdx < len(e.index) {
		link.idx = e.index.of(e.traceIdx, tr)
	}
	e.session = NewSession(e.Video, link, e.Cfg)
	return e.features()
}

// features encodes the session's current observation into the env's one
// feature buffer: all zeros once the video is done.
func (e *TrainEnv) features() []float64 {
	if e.session.ObservationInto(&e.obs) {
		e.feat = FeaturesInto(e.feat, &e.obs)
	} else {
		e.feat = append(e.feat[:0], make([]float64, FeatureSize(e.Video.Levels()))...)
	}
	return e.feat
}

// trainEnvSeed is a TrainEnv's reset seed: the RNG a one-lane env draws its
// trace from, and a lane env's lane (validated against the restoring env's
// own) and cursor. The in-flight permutation is a pure function of the
// cursor state, so a mid-epoch restore is exact.
type trainEnvSeed struct {
	RNG  mathx.RNGState `json:"rng"`
	Lane *laneSeed      `json:"lane,omitempty"`
}

type laneSeed struct {
	Index  int               `json:"index"`
	Count  int               `json:"count"`
	Cursor trace.CursorState `json:"cursor"`
}

// ResetSeed implements rl.SeededEnv.
func (e *TrainEnv) ResetSeed() ([]byte, error) {
	st := trainEnvSeed{RNG: e.seedRNG}
	if e.cursor != nil {
		st.Lane = &laneSeed{Index: e.lane, Count: e.lanes, Cursor: e.seedCursor}
	}
	return json.Marshal(st)
}

// SetResetSeed implements rl.SeededEnv. The env must be built over the same
// dataset, lane and lane count the seed was taken from: the cursor is
// validated against the env's own lane before anything changes, so a refused
// seed leaves the env untouched.
func (e *TrainEnv) SetResetSeed(data []byte) error {
	var st trainEnvSeed
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("abr: decode reset seed: %w", err)
	}
	if l := st.Lane; l != nil {
		if e.cursor == nil {
			return fmt.Errorf("abr: reset seed carries lane %d/%d cursor but env runs one lane", l.Index, l.Count)
		}
		if e.lane != l.Index || e.lanes != l.Count {
			return fmt.Errorf("abr: reset seed lane %d/%d does not match env lane %d/%d", l.Index, l.Count, e.lane, e.lanes)
		}
		if l.Cursor.N != e.cursor.Len() {
			return fmt.Errorf("abr: reset seed cursor spans %d traces, env lane has %d", l.Cursor.N, e.cursor.Len())
		}
		c, err := trace.RestoreCursor(l.Cursor)
		if err != nil {
			return err
		}
		e.cursor = c
	} else if e.cursor != nil {
		return fmt.Errorf("abr: env streams lane %d/%d but reset seed carries no lane cursor", e.lane, e.lanes)
	}
	e.rng.SetState(st.RNG)
	e.markSeed()
	return nil
}

// Step implements rl.Env.
func (e *TrainEnv) Step(action []float64) ([]float64, float64, bool) {
	level := clampLevel(int(action[0]), e.Video.Levels())
	res := e.session.Step(level)
	return e.features(), res.QoE, e.session.Done()
}

// ObservationSize implements rl.Env.
func (e *TrainEnv) ObservationSize() int { return FeatureSize(e.Video.Levels()) }

// ActionSpec implements rl.Env.
func (e *TrainEnv) ActionSpec() rl.ActionSpec {
	return rl.ActionSpec{Discrete: true, N: e.Video.Levels()}
}

// PensieveProblem is the one Pensieve training problem: a categorical policy
// over the bitrate ladder, PPO at the canonical rollout size and learning
// rate, and one TrainEnv per lane with its own sampling stream, lane w of W
// streaming traces w, w+W, … in deterministic epoch-reshuffled order (one
// lane samples the whole dataset uniformly), every lane reading the one
// index of the dataset's traces. TrainPensieve, both phases of
// core.TrainRobustPensieve, cmd/advtrain's pensieve target and
// internal/dist's "pensieve" domain are all built from it. Envs fails when
// lanes exceeds the dataset size (every lane must own a trace).
func PensieveProblem(video *Video, dataset *trace.Dataset, rttS float64) rl.Problem {
	cfg := rl.DefaultPPOConfig()
	cfg.RolloutSteps = 1024
	cfg.LR = 1e-3
	levels := video.Levels()
	index := indexTraces(dataset)
	return rl.Problem{
		Nets: func(rng *mathx.RNG) (rl.Policy, *nn.MLP) {
			return rl.NewCategoricalPolicy(NewPensieveNet(rng, levels)), NewPensieveValueNet(rng, levels)
		},
		Config: cfg,
		Envs: func(lanes int, rng *mathx.RNG) (rl.EnvFactory, error) {
			if lanes > len(dataset.Traces) {
				return nil, fmt.Errorf("abr: %d lanes exceed dataset size %d (every lane must own a trace)", lanes, len(dataset.Traces))
			}
			rngs := make([]*mathx.RNG, lanes)
			for i := range rngs {
				rngs[i] = rng.Split()
			}
			return func(lane int) rl.Env {
				return newLaneEnv(video, dataset, index, DefaultSessionConfig(), rttS, rngs[lane], lane, lanes)
			}, nil
		},
	}
}

// TrainPensieve trains a fresh Pensieve agent on the dataset for the given
// number of PPO iterations on one lane and returns the protocol together
// with the trainer (so training can be resumed, e.g. to inject adversarial
// traces as in §2.3 of the paper).
func TrainPensieve(video *Video, dataset *trace.Dataset, iterations int, rng *mathx.RNG) (*Pensieve, *rl.PPO, error) {
	ppo, _, err := rl.Train(PensieveProblem(video, dataset, 0.08), rl.TrainOptions{Iterations: iterations}, rng)
	if err != nil {
		return nil, nil, err
	}
	return NewPensieve(ppo.Policy.(*rl.CategoricalPolicy)), ppo, nil
}
