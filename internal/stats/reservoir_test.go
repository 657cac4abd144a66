package stats

import (
	"math"
	"sort"
	"testing"

	"advnet/internal/mathx"
)

func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 10; i >= 1; i-- {
		r.Add(float64(i))
	}
	if r.Count() != 10 {
		t.Fatalf("count %d, want 10", r.Count())
	}
	s := Summarize(r)
	if s.P50 != 5.5 {
		t.Fatalf("median %v, want 5.5", s.P50)
	}
	if r.min != 1 || r.max != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("min/max %v/%v (summary %v/%v), want 1/10", r.min, r.max, s.Min, s.Max)
	}
	if got := r.sum / float64(r.n); got != 5.5 {
		t.Fatalf("mean %v, want 5.5", got)
	}
	// Below capacity the sample is the stream: extreme quantiles are exact.
	m := merge([]*Reservoir{r})
	if m.quantile(0) != s.Min || m.quantile(1) != s.Max {
		t.Fatal("extreme quantiles not exact below capacity")
	}
}

func TestReservoirApproximatesBigStream(t *testing.T) {
	r := NewReservoir(2048, 7)
	rng := mathx.NewRNG(99)
	for i := 0; i < 200_000; i++ {
		r.Add(rng.Uniform(0, 1))
	}
	if r.Count() != 200_000 {
		t.Fatalf("count %d", r.Count())
	}
	s := Summarize(r)
	for _, tc := range []struct{ q, got, want, tol float64 }{
		{0.5, s.P50, 0.5, 0.05},
		{0.95, s.P95, 0.95, 0.03},
		{0.99, s.P99, 0.99, 0.02},
	} {
		if math.Abs(tc.got-tc.want) > tc.tol {
			t.Fatalf("q=%v: got %v, want %v±%v", tc.q, tc.got, tc.want, tc.tol)
		}
	}
	// Exact aggregates are unaffected by sampling.
	if mean := r.sum / float64(r.n); math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v", mean)
	}
}

func TestReservoirAddZeroAllocs(t *testing.T) {
	r := NewReservoir(512, 3)
	// Overfill so the replacement branch is exercised too.
	for i := 0; i < 1024; i++ {
		r.Add(float64(i))
	}
	if n := testing.AllocsPerRun(1000, func() { r.Add(1.0) }); n != 0 {
		t.Fatalf("Add allocates %v per run, want 0", n)
	}
}

func TestReservoirReset(t *testing.T) {
	r := NewReservoir(8, 5)
	for i := 0; i < 20; i++ {
		r.Add(float64(i))
	}
	r.Reset()
	if r.Count() != 0 || r.sum != 0 {
		t.Fatal("reset did not clear state")
	}
	r.Add(42)
	if Summarize(r).P50 != 42 || r.min != 42 || r.max != 42 {
		t.Fatal("reservoir unusable after reset")
	}
}

func TestReservoirEmptyPanics(t *testing.T) {
	r := NewReservoir(8, 1)
	for _, f := range []func(){
		func() { merge([]*Reservoir{r}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on empty reservoir")
				}
			}()
			f()
		}()
	}
}

// TestMergedQuantileWeightsByTraffic: a shard with 10× the traffic must
// dominate the merged quantile even when both reservoirs retain the same
// number of samples.
func TestMergedQuantileWeightsByTraffic(t *testing.T) {
	hot := NewReservoir(256, 11)  // 10k observations near 100
	cold := NewReservoir(256, 13) // 1k observations near 1
	rng := mathx.NewRNG(17)
	for i := 0; i < 10_000; i++ {
		hot.Add(rng.Uniform(99, 101))
	}
	for i := 0; i < 1_000; i++ {
		cold.Add(rng.Uniform(0.9, 1.1))
	}
	// ~91% of the union sits near 100, so the median must be there.
	if got := Summarize(hot, cold).P50; got < 99 {
		t.Fatalf("merged median %v, want ≈100", got)
	}
	// The low tail still belongs to the cold shard.
	m := merge([]*Reservoir{hot, cold})
	if got := m.quantile(0.05); got > 2 {
		t.Fatalf("merged p5 %v, want ≈1", got)
	}
}

func TestSummarize(t *testing.T) {
	a := NewReservoir(128, 19)
	b := NewReservoir(128, 23)
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Add(float64(i))
	}
	s := Summarize(a, b)
	if s.Count != 200 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Min != 1 || s.Max != 200 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-100.5) > 1e-9 {
		t.Fatalf("mean %v", s.Mean)
	}
	if math.Abs(s.P50-100) > 3 {
		t.Fatalf("p50 %v", s.P50)
	}
	if s.P99 < 195 || s.P99 > 200 {
		t.Fatalf("p99 %v", s.P99)
	}
	if empty := Summarize(NewReservoir(8, 1)); empty.Count != 0 {
		t.Fatal("summary of empty reservoir not zero")
	}
}

// sampleQuantile is the plain empirical quantile of one reservoir's retained
// sample: sort a copy, interpolate between order statistics.
func sampleQuantile(r *Reservoir, q float64) float64 {
	sorted := append([]float64(nil), r.vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// TestSummarizeSingleReservoirMatchesQuantile pins the §8.4 contract the
// telemetry layer depends on: digesting ONE reservoir through Summarize
// must be bitwise-equal to the empirical quantile of its retained sample —
// both below capacity (weight 1) and after overflow (uniform weight
// n/len ≠ 1). A merge that stepped to the first value crossing the
// cumulative-weight target instead of interpolating would disagree here.
func TestSummarizeSingleReservoirMatchesQuantile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cap    int
		stream int
	}{
		{"below-capacity", 256, 100},
		{"at-capacity", 256, 256},
		{"overflowed", 256, 10_000},
		{"overflowed-odd", 300, 7777},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReservoir(tc.cap, 42)
			rng := mathx.NewRNG(7)
			for i := 0; i < tc.stream; i++ {
				r.Add(rng.Uniform(-5, 5))
			}
			s := Summarize(r)
			for _, p := range []struct {
				q   float64
				got float64
			}{
				{0.50, s.P50},
				{0.95, s.P95},
				{0.99, s.P99},
			} {
				if want := sampleQuantile(r, p.q); p.got != want {
					t.Fatalf("q=%v: Summarize %v != Quantile %v (diff %g)",
						p.q, p.got, want, p.got-want)
				}
			}
			if s.Min != r.min || s.Max != r.max || s.Mean != r.sum/float64(r.n) {
				t.Fatal("summary aggregates diverge from reservoir accessors")
			}
		})
	}
}

// TestMergedQuantileInterpolates: with unequal weights the estimate must
// interpolate within the weighted order statistics, not step. Two samples
// {0, 1} with weights {1, 3}: positions are x_0 = 0, x_1 = 1, so the
// median interpolates to 0.5 regardless of weights in the two-sample case;
// use three samples {0, 1, 2} with weights {1, 1, 2} (total 4): positions
// 0/(4-1)=0, 1/(4-1)=1/3, 2/(4-2)=1. q=0.5 falls between x_1 and x_2:
// t=(0.5-1/3)/(1-1/3)=0.25 → 1.25. The historical step rule answered 1.
func TestMergedQuantileInterpolates(t *testing.T) {
	a := NewReservoir(4, 1) // weight 1: retains {0, 1}
	a.Add(0)
	a.Add(1)
	b := NewReservoir(1, 2) // stream of 2, retains 1 sample: weight 2
	b.Add(2)
	b.Add(2) // overflow keeps the value 2 either way
	if len(b.vals) != 1 || b.vals[0] != 2 {
		t.Fatalf("reservoir b retained %v, want [2]", b.vals)
	}
	m := merge([]*Reservoir{a, b})
	got := m.quantile(0.5)
	want := 1.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("merged median %v, want %v", got, want)
	}
	// Monotonicity in q across the whole range.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := m.quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestReservoirRetentionUniform pins Algorithm R's core property after the
// unbiased-draw fix: every stream position is retained with probability
// cap/N, including stream lengths that are not powers of two (where a
// modulo-reduced victim draw is biased). 4k trials of a cap-8 reservoir
// over a 12-element stream: each position should be retained ~8/12 of the
// time; a chi-square over the 12 retention counts must stay at noise level.
func TestReservoirRetentionUniform(t *testing.T) {
	const (
		capacity = 8
		stream   = 12
		trials   = 40_000
	)
	counts := make([]float64, stream)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capacity, uint64(trial)+1)
		for i := 0; i < stream; i++ {
			r.Add(float64(i))
		}
		for _, v := range r.vals {
			counts[int(v)]++
		}
	}
	expected := float64(trials) * capacity / stream
	var chi2 float64
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// 99.9% critical value for 11 dof is ~31.3; allow headroom.
	if chi2 > 40 {
		t.Fatalf("retention chi-square %.1f over %d trials (counts %v, expected %.0f each)",
			chi2, trials, counts, expected)
	}
}

// mergedQuantileRef is the reference oracle for merge: one independent merge
// per quantile, in the form Summarize used before it merged once — append
// every retained sample with its weight, sort the pairs by value with
// sort.Slice, and walk them.
func mergedQuantileRef(q float64, rs ...*Reservoir) float64 {
	type wv struct {
		v, w float64
	}
	var pairs []wv
	uniform := true
	for _, r := range rs {
		if r == nil || len(r.vals) == 0 {
			continue
		}
		w := float64(r.n) / float64(len(r.vals))
		if len(pairs) > 0 && w != pairs[0].w {
			uniform = false
		}
		for _, v := range r.vals {
			pairs = append(pairs, wv{v, w})
		}
	}
	if len(pairs) == 0 {
		panic("stats: mergedQuantileRef of empty reservoirs")
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	if uniform {
		vals := make([]float64, len(pairs))
		for i, p := range pairs {
			vals[i] = p.v
		}
		return quantileSorted(vals, q)
	}
	if q <= 0 {
		return pairs[0].v
	}
	if q >= 1 {
		return pairs[len(pairs)-1].v
	}
	var total float64
	for _, p := range pairs {
		total += p.w
	}
	var cumBefore, prevX float64
	prevV := pairs[0].v
	for _, p := range pairs {
		x := cumBefore / (total - p.w)
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

// TestSummarizeMatchesMergedQuantileRef: one merge per Summarize must give,
// bit for bit, what three independent merges give. Random sets of 1–6
// reservoirs (nil and empty entries among them) with capacities 1–64 and
// streams of 0–200 values drawn to tie heavily — small integers and both
// signed zeros — cover the equal-weight path (every reservoir shares one
// capacity and stream length) and the weighted one.
func TestSummarizeMatchesMergedQuantileRef(t *testing.T) {
	rng := mathx.NewRNG(2027)
	value := func() float64 {
		switch k := rng.Intn(10); {
		case k < 3:
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		case k < 7:
			return float64(rng.Intn(5) - 2)
		default:
			return rng.Uniform(-3, 3)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	const trials = 20_000
	var equalRuns, weightedRuns int
	for trial := 0; trial < trials; trial++ {
		equal := rng.Intn(2) == 0
		sharedCap, sharedLen := 1+rng.Intn(64), rng.Intn(201)
		rs := make([]*Reservoir, 1+rng.Intn(6))
		for i := range rs {
			if rng.Intn(8) == 0 {
				continue // nil entry
			}
			capacity, stream := sharedCap, sharedLen
			if !equal {
				capacity, stream = 1+rng.Intn(64), rng.Intn(201)
			}
			if rng.Intn(8) == 0 {
				stream = 0 // empty entry
			}
			rs[i] = NewReservoir(capacity, rng.Uint64())
			for j := 0; j < stream; j++ {
				rs[i].Add(value())
			}
		}
		s := Summarize(rs...)
		if s.Count == 0 {
			if s != (Summary{}) {
				t.Fatalf("trial %d: summary of empty reservoirs %+v, want zero", trial, s)
			}
			continue
		}
		for _, p := range []struct{ q, got float64 }{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
			if want := mergedQuantileRef(p.q, rs...); !same(p.got, want) {
				t.Fatalf("trial %d: q=%v: Summarize %v (%#x), reference %v (%#x)",
					trial, p.q, p.got, math.Float64bits(p.got), want, math.Float64bits(want))
			}
		}
		m := merge(rs)
		if m.pairs == nil {
			equalRuns++
		} else {
			weightedRuns++
		}
		for _, q := range []float64{0, rng.Float64(), 1} {
			if got, want := m.quantile(q), mergedQuantileRef(q, rs...); !same(got, want) {
				t.Fatalf("trial %d: q=%v: merge %v, reference %v", trial, q, got, want)
			}
		}
	}
	if equalRuns < trials/4 || weightedRuns < trials/4 {
		t.Fatalf("coverage: %d equal-weight and %d weighted merges of %d trials", equalRuns, weightedRuns, trials)
	}
}

// TestSummarizeAllocs pins the single merge: one allocation per Summarize,
// for one reservoir (equal weights) and for eight with unequal traffic.
func TestSummarizeAllocs(t *testing.T) {
	rs := make([]*Reservoir, 8)
	for i := range rs {
		rs[i] = NewReservoir(64, uint64(i)+1)
		for j := 0; j < 100+10*i; j++ {
			rs[i].Add(float64(j % 7))
		}
	}
	for _, set := range [][]*Reservoir{rs[:1], rs} {
		if n := testing.AllocsPerRun(100, func() { Summarize(set...) }); n != 1 {
			t.Fatalf("Summarize over %d reservoirs: %v allocations, want 1", len(set), n)
		}
	}
}
