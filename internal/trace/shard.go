package trace

import (
	"errors"
	"fmt"

	"advnet/internal/mathx"
)

// This file implements the dataset-sharding layer behind sharded rollout
// collection: every training worker streams from its own disjoint slice of
// the trace corpus instead of sampling the full dataset, so a dataset grown
// by the §2.3 merge path (or a genuinely huge one) is never duplicated W
// times across workers. The three pieces are
//
//   - Shard: a zero-copy view of the traces round-robin-assigned to one of
//     W shards,
//   - ShardedDataset: the full W-way partition, built and validated once,
//   - Cursor: a per-shard sampling position with deterministic epoch
//     reshuffle, whose complete state serializes for checkpoints.
//
// Determinism contract (DESIGN.md §8.3): the identity shard — Shard(0, 1) —
// covers the parent dataset in order and is the signal to callers that the
// historical full-dataset sampling path applies unchanged; for any fixed
// shard count W ≥ 2 the assignment is a pure function of (index, count,
// len(dataset)), so two runs over the same dataset see identical shards, and
// the union of the W shards' epochs covers every trace exactly once per
// epoch.

// Shard is a zero-copy view of the subset of a dataset's traces assigned to
// shard `index` of `count`. Assignment is round-robin: shard w of W owns
// parent traces w, w+W, w+2W, … — shard sizes therefore differ by at most
// one, and the union of all W shards is the whole dataset.
type Shard struct {
	parent *Dataset
	index  int
	count  int
}

// Shard returns the round-robin shard `index` of `count` over the dataset.
// It panics when count <= 0 or index is outside [0, count); a shard over a
// dataset with fewer traces than `count` may be empty (Len() == 0), which
// callers that sample from the shard must reject.
func (d *Dataset) Shard(index, count int) *Shard {
	if count <= 0 {
		panic(fmt.Sprintf("trace: Shard count %d <= 0", count))
	}
	if index < 0 || index >= count {
		panic(fmt.Sprintf("trace: Shard index %d outside [0,%d)", index, count))
	}
	return &Shard{parent: d, index: index, count: count}
}

// Index returns which shard of Count this is.
func (s *Shard) Index() int { return s.index }

// Count returns the total number of shards in the partition.
func (s *Shard) Count() int { return s.count }

// Parent returns the dataset the shard views.
func (s *Shard) Parent() *Dataset { return s.parent }

// IsIdentity reports whether the shard is the whole dataset — Shard(0, 1) —
// the view under which sharded and unsharded behaviour must coincide.
func (s *Shard) IsIdentity() bool { return s.count == 1 }

// Len returns the number of traces assigned to the shard.
func (s *Shard) Len() int {
	n := len(s.parent.Traces)
	if s.index >= n {
		return 0
	}
	return (n - s.index + s.count - 1) / s.count
}

// ParentIndex maps a shard-local index to the trace's index in the parent
// dataset. It panics when i is outside [0, Len()).
func (s *Shard) ParentIndex(i int) int {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("trace: shard %d/%d local index %d outside [0,%d)", s.index, s.count, i, s.Len()))
	}
	return s.index + i*s.count
}

// ShardedDataset is a validated W-way round-robin partition of a dataset.
type ShardedDataset struct {
	parent *Dataset
	count  int
}

// NewShardedDataset partitions the dataset into count round-robin shards.
// Every shard must be non-empty — sampling from an empty shard can never
// terminate — so count must be in [1, len(d.Traces)].
func NewShardedDataset(d *Dataset, count int) (*ShardedDataset, error) {
	if d == nil || len(d.Traces) == 0 {
		return nil, errors.New("trace: NewShardedDataset on empty dataset")
	}
	if count <= 0 {
		return nil, fmt.Errorf("trace: NewShardedDataset count %d <= 0", count)
	}
	if count > len(d.Traces) {
		return nil, fmt.Errorf("trace: NewShardedDataset count %d exceeds dataset size %d (every shard must own at least one trace)", count, len(d.Traces))
	}
	return &ShardedDataset{parent: d, count: count}, nil
}

// Shard returns shard i of the partition.
func (sd *ShardedDataset) Shard(i int) *Shard { return sd.parent.Shard(i, sd.count) }

// Cursor streams the indices [0, n) in epochs: within an epoch every index
// appears exactly once, in an order reshuffled deterministically per epoch
// from the cursor's seed. Two cursors with equal (n, seed) produce identical
// streams forever, and a cursor rebuilt from State() continues the original's
// stream exactly — the property that lets a mid-epoch training checkpoint
// resume bit-for-bit.
type Cursor struct {
	n     int
	seed  uint64
	epoch int
	pos   int
	perm  []int
}

// CursorState is the complete serializable state of a Cursor. The in-flight
// permutation is not stored: it is a pure function of (N, Seed, Epoch) and is
// recomputed on restore.
type CursorState struct {
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"`
	Epoch int    `json:"epoch"`
	Pos   int    `json:"pos"`
}

// NewCursor returns a cursor over [0, n) reshuffled per epoch from seed. It
// panics when n <= 0.
func NewCursor(n int, seed uint64) *Cursor {
	if n <= 0 {
		panic(fmt.Sprintf("trace: NewCursor n %d <= 0", n))
	}
	c := &Cursor{n: n, seed: seed}
	c.reshuffle()
	return c
}

// RestoreCursor rebuilds a cursor from a captured state.
func RestoreCursor(st CursorState) (*Cursor, error) {
	if st.N <= 0 {
		return nil, fmt.Errorf("trace: cursor state n %d <= 0", st.N)
	}
	if st.Pos < 0 || st.Pos >= st.N {
		return nil, fmt.Errorf("trace: cursor state pos %d outside [0,%d)", st.Pos, st.N)
	}
	if st.Epoch < 0 {
		return nil, fmt.Errorf("trace: cursor state epoch %d < 0", st.Epoch)
	}
	c := &Cursor{n: st.N, seed: st.Seed, epoch: st.Epoch, pos: st.Pos}
	c.reshuffle()
	return c, nil
}

// epochPermSalt decorrelates per-epoch permutation seeds; the constant is the
// SplitMix64 increment already used by mathx.RNG.Split.
const epochPermSalt = 0x9e3779b97f4a7c15

// reshuffle installs the permutation for the cursor's current epoch. The
// permutation depends only on (n, seed, epoch), never on how the cursor got
// here, so restores and uninterrupted runs see identical orders.
func (c *Cursor) reshuffle() {
	rng := mathx.NewRNG(c.seed ^ (uint64(c.epoch+1) * epochPermSalt))
	c.perm = rng.Perm(c.n)
}

// Next returns the next index of the stream and advances the cursor,
// reshuffling when the epoch is exhausted.
func (c *Cursor) Next() int {
	v := c.perm[c.pos]
	c.pos++
	if c.pos == c.n {
		c.pos = 0
		c.epoch++
		c.reshuffle()
	}
	return v
}

// Len returns n, the size of the index range the cursor streams.
func (c *Cursor) Len() int { return c.n }

// State captures the cursor's complete state.
func (c *Cursor) State() CursorState {
	return CursorState{N: c.n, Seed: c.seed, Epoch: c.epoch, Pos: c.pos}
}
