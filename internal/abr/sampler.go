package abr

import (
	"fmt"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// ShardTraceSampler streams one shard of a dataset in deterministic
// epoch-reshuffled order: within an epoch every trace of the shard is visited
// exactly once, so for a W-way partition the union of the W workers' epochs
// covers the whole dataset exactly once per epoch. The complete sampler state
// (shard identity plus cursor) rides along in training checkpoints, so a
// mid-epoch resume continues the stream exactly.
type ShardTraceSampler struct {
	shard  *trace.Shard
	cursor *trace.Cursor
}

// NewShardTraceSampler builds a sampler over the shard whose epoch
// permutations derive from seed. It panics on an empty shard — sampling from
// nothing can never terminate.
func NewShardTraceSampler(shard *trace.Shard, seed uint64) *ShardTraceSampler {
	if shard == nil || shard.Len() == 0 {
		panic("abr: ShardTraceSampler over empty shard")
	}
	return &ShardTraceSampler{shard: shard, cursor: trace.NewCursor(shard.Len(), seed)}
}

// NextTrace returns the parent-dataset index of the trace for the next
// episode and advances the sampler.
func (s *ShardTraceSampler) NextTrace() int { return s.shard.ParentIndex(s.cursor.Next()) }

// NewTrainEnvSharded is NewTrainEnv restricted to one shard of the dataset:
// the env streams only the shard's traces, in deterministic epoch-reshuffled
// order seeded from the env's RNG. A nil or identity shard — Shard(0, 1) —
// delegates to NewTrainEnv without consuming any RNG draws, so single-shard
// construction is bit-for-bit the historical unsharded env.
func NewTrainEnvSharded(video *Video, dataset *trace.Dataset, cfg SessionConfig, rttS float64, rng *mathx.RNG, shard *trace.Shard) *TrainEnv {
	if shard == nil || shard.IsIdentity() {
		return NewTrainEnv(video, dataset, cfg, rttS, rng)
	}
	if shard.Parent() != dataset {
		panic("abr: NewTrainEnvSharded shard views a different dataset")
	}
	if shard.Len() == 0 {
		panic(fmt.Sprintf("abr: NewTrainEnvSharded shard %d/%d is empty", shard.Index(), shard.Count()))
	}
	e := NewTrainEnv(video, dataset, cfg, rttS, rng)
	e.sampler = NewShardTraceSampler(shard, rng.Uint64())
	return e
}

// shardSamplerState rides in trainEnvState when the env streams a shard: the
// shard identity (validated against the restoring env's own shard) and the
// sampling cursor. The in-flight permutation is a pure function of the cursor
// state, so a mid-epoch restore is exact.
type shardSamplerState struct {
	Index  int               `json:"index"`
	Count  int               `json:"count"`
	Cursor trace.CursorState `json:"cursor"`
}
