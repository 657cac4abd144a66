package metrics

// Timeseries is an append-only series of (t, v) observations bucketed onto
// a fixed-interval grid, with automatic pairwise downsampling: when the
// grid outgrows maxPoints buckets, the interval doubles and adjacent
// buckets merge, so memory stays bounded no matter how long the run while
// the shape of the trajectory survives (each bucket keeps its sum and
// count; the serialized series reports per-bucket means).
//
// The time axis is whatever the producer chooses — wall seconds for a
// serving storm, iteration index for a trainer — as long as it is
// non-decreasing enough to be meaningful; observations before the first
// one's time land in bucket 0. A Timeseries is single-goroutine state,
// like the Timer next to it.
type Timeseries struct {
	interval  float64 // current seconds (or index units) per bucket
	maxPoints int
	start     float64
	started   bool
	sums      []float64
	counts    []uint64
}

// DefaultSeriesPoints bounds a series to a few hundred buckets — enough to
// plot, small enough to keep in a report.
const DefaultSeriesPoints = 256

// NewTimeseries builds a series with the given initial bucket interval
// (must be > 0) and maximum bucket count (<= 0 means
// DefaultSeriesPoints).
func NewTimeseries(interval float64, maxPoints int) *Timeseries {
	if interval <= 0 {
		panic("metrics: Timeseries interval must be > 0")
	}
	if maxPoints <= 0 {
		maxPoints = DefaultSeriesPoints
	}
	// Downsampling merges pairs, so keep an even capacity.
	if maxPoints%2 != 0 {
		maxPoints++
	}
	return &Timeseries{interval: interval, maxPoints: maxPoints}
}

// Append records v at time t. The first observation anchors the grid;
// later observations land in bucket floor((t-start)/interval), clamped at
// 0 for stragglers before the anchor. When the needed bucket index reaches
// maxPoints the series halves its resolution (interval doubles, adjacent
// buckets merge) until the index fits.
func (ts *Timeseries) Append(t, v float64) {
	if !ts.started {
		ts.started = true
		ts.start = t
	}
	idx := int((t - ts.start) / ts.interval)
	if idx < 0 {
		idx = 0
	}
	for idx >= ts.maxPoints {
		ts.compact()
		idx = int((t - ts.start) / ts.interval)
	}
	for len(ts.sums) <= idx {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.sums[idx] += v
	ts.counts[idx]++
}

// compact doubles the interval and merges adjacent bucket pairs.
func (ts *Timeseries) compact() {
	ts.interval *= 2
	half := (len(ts.sums) + 1) / 2
	for i := 0; i < half; i++ {
		lo := 2 * i
		ts.sums[i] = ts.sums[lo]
		ts.counts[i] = ts.counts[lo]
		if lo+1 < len(ts.sums) {
			ts.sums[i] += ts.sums[lo+1]
			ts.counts[i] += ts.counts[lo+1]
		}
	}
	ts.sums = ts.sums[:half]
	ts.counts = ts.counts[:half]
}

// Len returns the number of materialized buckets.
func (ts *Timeseries) Len() int { return len(ts.sums) }

// SeriesDump is the serialized form of a Timeseries: per-bucket means and
// counts on a fixed-interval grid. Empty buckets report a zero mean and a
// zero count (the count disambiguates "no data" from "mean of zero").
type SeriesDump struct {
	Rule
	IntervalS float64   `json:"interval_s"`
	StartS    float64   `json:"start_s"`
	Means     []float64 `json:"means"`
	Counts    []uint64  `json:"counts"`
}

// Dump serializes the series.
func (ts *Timeseries) Dump() SeriesDump {
	d := SeriesDump{
		IntervalS: ts.interval,
		StartS:    ts.start,
		Means:     make([]float64, len(ts.sums)),
		Counts:    append([]uint64(nil), ts.counts...),
	}
	for i, s := range ts.sums {
		if ts.counts[i] > 0 {
			d.Means[i] = s / float64(ts.counts[i])
		}
	}
	return d
}
