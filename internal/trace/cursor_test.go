package trace

import (
	"reflect"
	"testing"
)

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

// TestShardPartition: the round-robin split of n traces across W lanes is
// disjoint, covers the dataset, and gives lane counts that differ by at most
// one; lane w's i-th trace is w + i·W.
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 1}, {10, 3}, {10, 10}, {7, 4}, {1, 1}, {11, 4}, {12, 3}} {
		seen := make(map[int]int)
		minLen, maxLen := tc.n, 0
		for w := 0; w < tc.w; w++ {
			span := LaneLen(tc.n, w, tc.w)
			minLen, maxLen = min(minLen, span), max(maxLen, span)
			for i := 0; i < span; i++ {
				pi := w + i*tc.w
				if pi >= tc.n {
					t.Fatalf("n=%d w=%d: lane %d local %d maps to trace %d, past the dataset", tc.n, tc.w, w, i, pi)
				}
				seen[pi]++
			}
		}
		if len(seen) != tc.n {
			t.Fatalf("n=%d w=%d: union covers %d traces, want %d", tc.n, tc.w, len(seen), tc.n)
		}
		for pi, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d w=%d: trace %d assigned to %d lanes", tc.n, tc.w, pi, c)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("n=%d w=%d: lane sizes range %d..%d, want balanced", tc.n, tc.w, minLen, maxLen)
		}
	}
}

// TestShardCursorFullEpochCoverage is the dataset-level coverage contract:
// for any fixed W, draining one epoch from the cursor of every lane w of W,
// which streams traces w, w+W, …, touches every trace exactly once.
func TestShardCursorFullEpochCoverage(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{12, 1}, {12, 3}, {11, 4}} {
		seen := make(map[int]int)
		for w := 0; w < tc.w; w++ {
			span := LaneLen(tc.n, w, tc.w)
			c := NewCursor(span, uint64(1000+w))
			for i := 0; i < span; i++ {
				seen[w+c.Next()*tc.w]++
			}
		}
		for pi := 0; pi < tc.n; pi++ {
			if seen[pi] != 1 {
				t.Fatalf("n=%d w=%d: trace %d drawn %d times in one epoch, want exactly 1", tc.n, tc.w, pi, seen[pi])
			}
		}
	}
}
