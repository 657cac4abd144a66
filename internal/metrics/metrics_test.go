package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d, want 8000", c.Value())
	}
}

func TestTimerObserves(t *testing.T) {
	tm := newTimer(1)
	tm.Observe(10 * time.Millisecond)
	tm.ObserveSeconds(0.02)
	if math.Abs(tm.total-0.03) > 1e-12 {
		t.Fatalf("total %v, want 0.03", tm.total)
	}
	s := tm.Summary()
	if s.Count != 2 || s.Max < 0.0199 {
		t.Fatalf("summary %+v", s)
	}
	if empty := newTimer(2).Summary(); empty.Count != 0 {
		t.Fatalf("empty timer summary %+v", empty)
	}
}

func TestTimeseriesBuckets(t *testing.T) {
	ts := NewTimeseries(1.0, 8)
	for i := 0; i < 4; i++ {
		ts.Append(float64(i), float64(i*10))
		ts.Append(float64(i)+0.5, float64(i*10)) // same bucket
	}
	d := ts.Dump()
	if len(d.Means) != 4 {
		t.Fatalf("buckets %d, want 4", len(d.Means))
	}
	for i, m := range d.Means {
		if m != float64(i*10) || d.Counts[i] != 2 {
			t.Fatalf("bucket %d: mean %v count %d", i, m, d.Counts[i])
		}
	}
	if d.IntervalS != 1.0 || d.StartS != 0 {
		t.Fatalf("dump grid %+v", d)
	}
}

// TestTimeseriesDownsamples: exceeding maxPoints doubles the interval and
// merges pairs, preserving totals.
func TestTimeseriesDownsamples(t *testing.T) {
	ts := NewTimeseries(1.0, 8)
	for i := 0; i < 100; i++ {
		ts.Append(float64(i), 1)
	}
	if ts.Len() > 8 {
		t.Fatalf("series has %d buckets, cap 8", ts.Len())
	}
	if ts.interval != 16 { // 1 → 2 → 4 → 8 → 16 covers 100 units in ≤8 buckets
		t.Fatalf("interval %v, want 16", ts.interval)
	}
	d := ts.Dump()
	var total uint64
	for _, c := range d.Counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("downsampling lost observations: %d, want 100", total)
	}
	// Uniform unit observations: every full bucket's mean stays 1.
	for i, m := range d.Means {
		if d.Counts[i] > 0 && m != 1 {
			t.Fatalf("bucket %d mean %v, want 1", i, m)
		}
	}
}

func TestTimeseriesEarlyStragglerClamps(t *testing.T) {
	ts := NewTimeseries(1.0, 8)
	ts.Append(10, 5)
	ts.Append(9, 7) // before the anchor: clamps into bucket 0
	d := ts.Dump()
	if d.Counts[0] != 2 || d.Means[0] != 6 {
		t.Fatalf("bucket 0: count %d mean %v", d.Counts[0], d.Means[0])
	}
}

func TestRuleHelpers(t *testing.T) {
	if r := HigherIsBetter("req/s"); r.Direction != Higher || r.Unit != "req/s" {
		t.Fatalf("HigherIsBetter %+v", r)
	}
	if r := LowerIsBetter("us"); r.Direction != Lower || r.Unit != "us" {
		t.Fatalf("LowerIsBetter %+v", r)
	}
	if r := Info("s"); r.Direction != None || r.Unit != "s" {
		t.Fatalf("Info %+v", r)
	}
}
