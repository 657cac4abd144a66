package trace

import (
	"fmt"

	"advnet/internal/mathx"
)

// Cursor streams the indices [0, n) in epochs: within an epoch every index
// appears exactly once, in an order reshuffled deterministically per epoch
// from the cursor's seed. Two cursors with equal (n, seed) produce identical
// streams forever, and a cursor rebuilt from State() continues the original's
// stream exactly — the property that lets a mid-epoch training checkpoint
// resume bit-for-bit. Each training lane streams its share of a dataset
// through one (DESIGN.md §8.3).
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

// LaneLen returns how many of n traces lane streams when lanes lanes split
// them round-robin (traces lane, lane+lanes, …): ⌈(n − lane)/lanes⌉.
func LaneLen(n, lane, lanes int) int { return (n - lane + lanes - 1) / lanes }

// epochPermSalt decorrelates per-epoch permutation seeds; the constant is the
// SplitMix64 increment already used by mathx.RNG.Split.
const epochPermSalt = 0x9e3779b97f4a7c15

// reshuffle installs the permutation for the cursor's current epoch. The
// permutation depends only on (n, seed, epoch), never on how the cursor got
// here, so restores and uninterrupted runs see identical orders.
func (c *Cursor) reshuffle() {
	rng := mathx.NewRNG(c.seed ^ (uint64(c.epoch+1) * epochPermSalt))
	c.perm = rng.Perm(c.perm, c.n)
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
