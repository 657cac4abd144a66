package trace

import (
	"reflect"
	"testing"
)

func shardTestDataset(n int) *Dataset {
	d := &Dataset{Name: "sharded"}
	for i := 0; i < n; i++ {
		d.Traces = append(d.Traces, Constant("t", 10, float64(i+1), 40, 0))
	}
	return d
}

// TestShardPartition: round-robin shards are disjoint, cover the dataset,
// differ in size by at most one, and map local indices back to the right
// parent traces without copying.
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 1}, {10, 3}, {10, 10}, {7, 4}, {1, 1}} {
		d := shardTestDataset(tc.n)
		seen := make(map[int]int)
		minLen, maxLen := tc.n, 0
		for w := 0; w < tc.w; w++ {
			s := d.Shard(w, tc.w)
			if s.Index() != w || s.Count() != tc.w || s.Parent() != d {
				t.Fatalf("n=%d w=%d: shard identity wrong", tc.n, tc.w)
			}
			if s.Len() < minLen {
				minLen = s.Len()
			}
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
			for i := 0; i < s.Len(); i++ {
				pi := s.ParentIndex(i)
				if pi%tc.w != w {
					t.Fatalf("n=%d w=%d: local %d maps to parent %d, not round-robin", tc.n, tc.w, i, pi)
				}
				if s.parent.Traces[s.ParentIndex(i)] != d.Traces[pi] {
					t.Fatalf("n=%d w=%d: Trace(%d) is a copy, want zero-copy alias", tc.n, tc.w, i)
				}
				seen[pi]++
			}
		}
		if len(seen) != tc.n {
			t.Fatalf("n=%d w=%d: union covers %d traces, want %d", tc.n, tc.w, len(seen), tc.n)
		}
		for pi, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d w=%d: parent trace %d assigned to %d shards", tc.n, tc.w, pi, c)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("n=%d w=%d: shard sizes range %d..%d, want balanced", tc.n, tc.w, minLen, maxLen)
		}
	}
}

func TestShardIdentity(t *testing.T) {
	d := shardTestDataset(4)
	s := d.Shard(0, 1)
	if !s.IsIdentity() || s.Len() != 4 {
		t.Fatal("Shard(0,1) is not the identity view")
	}
	for i := range d.Traces {
		if s.ParentIndex(i) != i || s.parent.Traces[s.ParentIndex(i)] != d.Traces[i] {
			t.Fatalf("identity shard reorders trace %d", i)
		}
	}
	if d.Shard(1, 3).IsIdentity() {
		t.Fatal("non-trivial shard claims identity")
	}
}

func TestShardRejects(t *testing.T) {
	d := shardTestDataset(3)
	for _, tc := range []struct{ w, count int }{{0, 0}, {0, -1}, {-1, 2}, {2, 2}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d,%d) did not panic", tc.w, tc.count)
				}
			}()
			d.Shard(tc.w, tc.count)
		}()
	}
	// Empty shards are representable (count > n) but local access panics.
	s := d.Shard(4, 5)
	if s.Len() != 0 {
		t.Fatalf("shard 4 of 5 over 3 traces has Len %d, want 0", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("ParentIndex on empty shard did not panic")
		}
	}()
	s.ParentIndex(0)
}

func TestNewShardedDataset(t *testing.T) {
	d := shardTestDataset(5)
	if _, err := NewShardedDataset(d, 0); err == nil {
		t.Fatal("count 0 accepted")
	}
	if _, err := NewShardedDataset(d, 6); err == nil {
		t.Fatal("count > len accepted (would create an empty shard)")
	}
	if _, err := NewShardedDataset(&Dataset{}, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
	sd, err := NewShardedDataset(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sd.count != 2 || sd.parent != d {
		t.Fatal("sharded dataset identity wrong")
	}
	if sd.Shard(0).Len()+sd.Shard(1).Len() != 5 {
		t.Fatal("shards do not cover the dataset")
	}
}

// TestCursorEpochPermutation: each epoch visits every index exactly once,
// consecutive epochs are (almost surely) differently ordered, and the stream
// is a pure function of (n, seed).
func TestCursorEpochPermutation(t *testing.T) {
	const n = 8
	c := NewCursor(n, 42)
	var epochs [3][]int
	for e := 0; e < 3; e++ {
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			if c.epoch != e {
				t.Fatalf("epoch counter %d, want %d", c.epoch, e)
			}
			v := c.Next()
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("epoch %d: index %v out of range or repeated", e, v)
			}
			seen[v] = true
			epochs[e] = append(epochs[e], v)
		}
	}
	if reflect.DeepEqual(epochs[0], epochs[1]) && reflect.DeepEqual(epochs[1], epochs[2]) {
		t.Fatal("three consecutive epochs identically ordered: reshuffle is not happening")
	}
	// Same (n, seed) → identical stream.
	c2 := NewCursor(n, 42)
	for e := 0; e < 3; e++ {
		for i := 0; i < n; i++ {
			if got, want := c2.Next(), epochs[e][i]; got != want {
				t.Fatalf("replayed cursor diverged at epoch %d pos %d: %d vs %d", e, i, got, want)
			}
		}
	}
	// Different seed → (almost surely) different stream somewhere early.
	c3 := NewCursor(n, 43)
	same := true
	for e := 0; e < 3 && same; e++ {
		for i := 0; i < n; i++ {
			if c3.Next() != epochs[e][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 3-epoch streams")
	}
}

// TestCursorStateRoundTrip: a cursor restored mid-epoch continues the
// original stream exactly, across the epoch boundary.
func TestCursorStateRoundTrip(t *testing.T) {
	c := NewCursor(5, 7)
	for i := 0; i < 7; i++ { // stop mid-second-epoch
		c.Next()
	}
	st := c.State()
	if st.Epoch != 1 || st.Pos != 2 {
		t.Fatalf("state = %+v, want epoch 1 pos 2", st)
	}
	r, err := RestoreCursor(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if a, b := c.Next(), r.Next(); a != b {
			t.Fatalf("restored cursor diverged at draw %d: %d vs %d", i, a, b)
		}
	}
}

func TestRestoreCursorRejects(t *testing.T) {
	for _, st := range []CursorState{
		{N: 0, Pos: 0},
		{N: 3, Pos: 3},
		{N: 3, Pos: -1},
		{N: 3, Pos: 0, Epoch: -1},
	} {
		if _, err := RestoreCursor(st); err == nil {
			t.Errorf("state %+v accepted", st)
		}
	}
}

// TestShardCursorFullEpochCoverage is the dataset-level coverage contract:
// for any fixed W, draining one epoch from every shard's cursor touches every
// trace of the parent dataset exactly once.
func TestShardCursorFullEpochCoverage(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{12, 1}, {12, 3}, {11, 4}} {
		d := shardTestDataset(tc.n)
		seen := make(map[int]int)
		for w := 0; w < tc.w; w++ {
			s := d.Shard(w, tc.w)
			c := NewCursor(s.Len(), uint64(1000+w))
			for i := 0; i < s.Len(); i++ {
				seen[s.ParentIndex(c.Next())]++
			}
		}
		for pi := 0; pi < tc.n; pi++ {
			if seen[pi] != 1 {
				t.Fatalf("n=%d w=%d: trace %d drawn %d times in one epoch, want exactly 1", tc.n, tc.w, pi, seen[pi])
			}
		}
	}
}
