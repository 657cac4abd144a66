package stats

import (
	"fmt"
	"math"
	"slices"

	"advnet/internal/mathx"
)

// Reservoir is a fixed-memory streaming sample for percentile estimation
// over unbounded streams (Vitter's Algorithm R), plus exact running count,
// sum, min, and max. It is the latency substrate of the serving engine: a
// shard's gatherer Adds one observation per request forever, in O(1) time and
// zero allocations, and Summarize answers p50/p95/p99 from the retained
// sample at any point.
//
// A Reservoir is single-goroutine state, like the nn caches it sits next to:
// each serving shard owns one, and cross-shard views are computed by
// Summarize over several reservoirs rather than by sharing.
type Reservoir struct {
	vals []float64 // retained sample, len == min(n, cap)
	n    uint64    // total observations
	sum  float64
	min  float64
	max  float64
	rng  *mathx.RNG
}

// DefaultReservoirSize retains enough samples that the p99 of a steady
// stream is estimated from ~40 order statistics.
const DefaultReservoirSize = 4096

// NewReservoir returns a reservoir retaining up to capacity samples
// (DefaultReservoirSize when capacity <= 0). The replacement stream is
// seeded deterministically so runs are reproducible.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity <= 0 {
		capacity = DefaultReservoirSize
	}
	return &Reservoir{
		vals: make([]float64, 0, capacity),
		min:  math.Inf(1),
		max:  math.Inf(-1),
		rng:  mathx.NewRNG(seed),
	}
}

// Add observes one value in O(1) with no allocations (the sample slice is
// pre-sized at construction).
func (r *Reservoir) Add(x float64) {
	r.n++
	r.sum += x
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, x)
		return
	}
	// Algorithm R: keep x with probability cap/n, replacing a uniform
	// victim, so the retained set stays a uniform sample of the stream.
	// The slot draw must be exactly uniform over [0, n): a modulo
	// reduction favors low residues for stream lengths that are not powers
	// of two, tilting retention toward early slots (mathx.Uint64n is the
	// unbiased bounded draw).
	if j := r.rng.Uint64n(r.n); j < uint64(len(r.vals)) {
		r.vals[j] = x
	}
}

// Count returns the total number of observations.
func (r *Reservoir) Count() uint64 { return r.n }

// Reset forgets everything but keeps the allocated capacity and RNG stream.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.n = 0
	r.sum = 0
	r.min = math.Inf(1)
	r.max = math.Inf(-1)
}

// quantileSorted interpolates the q-th quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// weighted is one retained sample and the number of stream observations it
// stands for.
type weighted struct{ v, w float64 }

// mergedSample is the union of several reservoirs' retained samples, sorted
// once so that any number of quantiles can be read off it. When every sample
// carries the same weight it is held as plain values; otherwise as
// (value, weight) pairs with their total weight, summed in sorted order.
type mergedSample struct {
	vals  []float64
	pairs []weighted
	total float64
}

// merge builds the sorted union of rs's retained samples in one exactly-sized
// allocation. Each sample is weighted by the number of stream observations it
// represents (n_i / len_i), so shards with more traffic count proportionally
// more. Both sorts order by value with <, so ties — ±0 included — land where
// a sort.Slice over the same sequence puts them. Nil and empty reservoirs are
// skipped; it panics when every reservoir is empty.
func merge(rs []*Reservoir) mergedSample {
	size, uniform := 0, true
	var w0 float64
	for _, r := range rs {
		if r == nil || len(r.vals) == 0 {
			continue
		}
		w := float64(r.n) / float64(len(r.vals))
		if size == 0 {
			w0 = w
		} else if w != w0 {
			uniform = false
		}
		size += len(r.vals)
	}
	if size == 0 {
		panic("stats: quantile of empty reservoirs")
	}
	var m mergedSample
	if uniform {
		m.vals = make([]float64, 0, size)
		for _, r := range rs {
			if r != nil {
				m.vals = append(m.vals, r.vals...)
			}
		}
		slices.Sort(m.vals)
		return m
	}
	m.pairs = make([]weighted, 0, size)
	for _, r := range rs {
		if r == nil || len(r.vals) == 0 {
			continue
		}
		w := float64(r.n) / float64(len(r.vals))
		for _, v := range r.vals {
			m.pairs = append(m.pairs, weighted{v, w})
		}
	}
	slices.SortFunc(m.pairs, func(a, b weighted) int {
		if a.v < b.v {
			return -1
		}
		if b.v < a.v {
			return 1
		}
		return 0
	})
	for _, p := range m.pairs {
		m.total += p.w
	}
	return m
}

// quantile estimates the q-th quantile (q in [0,1]) of the union of the
// merged streams. When every sample carries the same weight — in particular
// for a single reservoir — it is quantileSorted on the merged values: the
// plain empirical quantile, exact while a stream fits in its reservoir.
// Otherwise it interpolates within the weighted order statistics exactly as
// quantileSorted does for the unweighted case.
func (m *mergedSample) quantile(q float64) float64 {
	if m.pairs == nil {
		return quantileSorted(m.vals, q)
	}
	pairs := m.pairs
	if q <= 0 {
		return pairs[0].v
	}
	if q >= 1 {
		return pairs[len(pairs)-1].v
	}
	// Interpolated weighted order statistics: sample k sits at position
	// x_k = cumBefore_k / (total - w_k), the generalization of k/(n-1)
	// (to which it reduces for equal weights). The positions are
	// non-decreasing: an inversion would need w_k·(total-w_k) <
	// cumBefore_k·(w_k - w_{k+1}), impossible since cumBefore_k < total-w_k
	// and w_k - w_{k+1} < w_k.
	var cumBefore, prevX float64
	prevV := pairs[0].v
	for _, p := range pairs {
		x := cumBefore / (m.total - p.w)
		if x >= q {
			if x <= prevX {
				return p.v
			}
			t := (q - prevX) / (x - prevX)
			return prevV*(1-t) + p.v*t
		}
		cumBefore += p.w
		prevX, prevV = x, p.v
	}
	return pairs[len(pairs)-1].v
}

// Summary is a compact digest of a distribution, the unit every latency
// report and metrics.Dist records.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summarize digests one or more reservoirs into a Summary over the union of
// their streams: Count, Mean, Min and Max are exact, and the percentiles are
// read off one merge of the retained samples (see merge). A summary of zero
// observations is the zero Summary.
func Summarize(rs ...*Reservoir) Summary {
	var s Summary
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	any := false
	for _, r := range rs {
		if r == nil || r.n == 0 {
			continue
		}
		any = true
		s.Count += r.n
		sum += r.sum
		if r.min < minV {
			minV = r.min
		}
		if r.max > maxV {
			maxV = r.max
		}
	}
	if !any {
		return Summary{}
	}
	s.Mean = sum / float64(s.Count)
	s.Min = minV
	s.Max = maxV
	m := merge(rs)
	s.P50, s.P95, s.P99 = m.quantile(0.50), m.quantile(0.95), m.quantile(0.99)
	return s
}

// String renders the summary on one line (values interpreted by the caller's
// unit convention).
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g min=%.3g max=%.3g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}
