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
	a := p.Policy.Mode(Features(o))
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
	session     *Session
	traceIdx    int         // dataset index of the current session's trace; -1 when none
	obs         Observation // the session's view, refilled each chunk
	feat        []float64   // the observation Reset and Step return
}

// NewTrainEnv builds a training environment that samples traces uniformly
// from dataset.
func NewTrainEnv(video *Video, dataset *trace.Dataset, cfg SessionConfig, rttS float64, rng *mathx.RNG) *TrainEnv {
	if len(dataset.Traces) == 0 {
		panic("abr: TrainEnv with empty dataset")
	}
	return &TrainEnv{Video: video, Dataset: dataset, Cfg: cfg, RTTSeconds: rttS, rng: rng, traceIdx: -1}
}

// newLaneEnv is the env of lane `lane` of a lanes-wide run (DESIGN.md §8.3):
// it streams traces lane, lane+lanes, lane+2·lanes, … in epoch-reshuffled
// order, its cursor seeded from one draw of rng. A one-lane env draws nothing
// here and samples the whole dataset uniformly, as NewTrainEnv's does.
func newLaneEnv(video *Video, dataset *trace.Dataset, cfg SessionConfig, rttS float64, rng *mathx.RNG, lane, lanes int) *TrainEnv {
	e := NewTrainEnv(video, dataset, cfg, rttS, rng)
	if lanes > 1 {
		e.lane, e.lanes = lane, lanes
		e.cursor = trace.NewCursor(trace.LaneLen(len(dataset.Traces), lane, lanes), rng.Uint64())
	}
	return e
}

// Reset implements rl.Env. A lane env takes the next trace of its lane from
// its cursor; a one-lane env draws uniformly from the whole dataset with its
// own RNG.
func (e *TrainEnv) Reset() []float64 {
	if e.cursor != nil {
		e.traceIdx = e.lane + e.cursor.Next()*e.lanes
	} else {
		e.traceIdx = e.rng.Intn(len(e.Dataset.Traces))
	}
	link := &TraceLink{Trace: e.Dataset.Traces[e.traceIdx], RTTSeconds: e.RTTSeconds}
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

// trainEnvState is the serialized form of a TrainEnv for checkpointing: the
// trace-sampling RNG, a lane env's lane and cursor, and, when an episode is
// in flight, which trace it runs on and the mid-stream session state.
type trainEnvState struct {
	RNG      mathx.RNGState `json:"rng"`
	TraceIdx int            `json:"trace_idx"`
	Session  *SessionState  `json:"session,omitempty"`
	Lane     *laneState     `json:"shard,omitempty"`
}

// laneState is a lane env's lane (validated against the restoring env's own)
// and its cursor. The in-flight permutation is a pure function of the cursor
// state, so a mid-epoch restore is exact. Its key and field names are those
// of every checkpoint written so far.
type laneState struct {
	Index  int               `json:"index"`
	Count  int               `json:"count"`
	Cursor trace.CursorState `json:"cursor"`
}

// EnvState implements rl.EnvCheckpointer: it serializes the trace-sampling
// RNG, a lane env's cursor, and any in-flight session so a resumed trainer
// replays bit-for-bit.
func (e *TrainEnv) EnvState() ([]byte, error) {
	st := trainEnvState{RNG: e.rng.State(), TraceIdx: -1}
	if e.cursor != nil {
		st.Lane = &laneState{Index: e.lane, Count: e.lanes, Cursor: e.cursor.State()}
	}
	if e.session != nil && !e.session.Done() {
		ss := e.session.State()
		st.TraceIdx = e.traceIdx
		st.Session = &ss
	}
	return json.Marshal(st)
}

// SetEnvState implements rl.EnvCheckpointer. The env must be built over the
// same video, dataset, lane and lane count the state was captured against;
// the trace index is validated against the dataset, the session state against
// the video, and the cursor against the env's own lane. Validation happens
// before any mutation, so a failed restore leaves the env untouched.
func (e *TrainEnv) SetEnvState(data []byte) error {
	var st trainEnvState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("abr: decode env state: %w", err)
	}
	var restored *trace.Cursor
	if l := st.Lane; l != nil {
		if e.cursor == nil {
			return fmt.Errorf("abr: checkpoint carries lane %d/%d cursor but env runs one lane", l.Index, l.Count)
		}
		if e.lane != l.Index || e.lanes != l.Count {
			return fmt.Errorf("abr: checkpoint lane %d/%d does not match env lane %d/%d", l.Index, l.Count, e.lane, e.lanes)
		}
		c, err := trace.RestoreCursor(l.Cursor)
		if err != nil {
			return err
		}
		if c.Len() != e.cursor.Len() {
			return fmt.Errorf("abr: checkpoint cursor spans %d traces, env lane has %d", c.Len(), e.cursor.Len())
		}
		restored = c
	} else if e.cursor != nil {
		return fmt.Errorf("abr: env streams lane %d/%d but checkpoint carries no lane cursor", e.lane, e.lanes)
	}
	if st.Session != nil {
		if st.TraceIdx < 0 || st.TraceIdx >= len(e.Dataset.Traces) {
			return fmt.Errorf("abr: restored trace index %d out of range [0,%d)", st.TraceIdx, len(e.Dataset.Traces))
		}
		link := &TraceLink{Trace: e.Dataset.Traces[st.TraceIdx], RTTSeconds: e.RTTSeconds}
		s, err := RestoreSession(e.Video, link, e.Cfg, *st.Session)
		if err != nil {
			return err
		}
		e.session = s
		e.traceIdx = st.TraceIdx
	} else {
		e.session = nil
		e.traceIdx = -1
	}
	if restored != nil {
		e.cursor = restored
	}
	e.rng.SetState(st.RNG)
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
// lane samples the whole dataset uniformly). TrainPensieve, both phases of
// core.TrainRobustPensieve, cmd/advtrain's pensieve target and
// internal/dist's "pensieve" domain are all built from it. Envs fails when
// lanes exceeds the dataset size (every lane must own a trace).
func PensieveProblem(video *Video, dataset *trace.Dataset, rttS float64) rl.Problem {
	cfg := rl.DefaultPPOConfig()
	cfg.RolloutSteps = 1024
	cfg.LR = 1e-3
	levels := video.Levels()
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
				return newLaneEnv(video, dataset, DefaultSessionConfig(), rttS, rngs[lane], lane, lanes)
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
