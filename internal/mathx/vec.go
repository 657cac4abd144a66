package mathx

import "math"

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the largest element of xs (first on ties).
// It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies every element of xs by alpha in place.
func Scale(alpha float64, xs []float64) {
	for i := range xs {
		xs[i] *= alpha
	}
}

// Fill sets every element of xs to v.
func Fill(xs []float64, v float64) {
	for i := range xs {
		xs[i] = v
	}
}

// CopyOf returns a fresh copy of xs.
func CopyOf(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}

// Softmax writes the softmax of logits into out (which may alias logits) and
// returns out. It is numerically stable under large logits.
func Softmax(logits, out []float64) []float64 {
	if len(out) != len(logits) {
		panic("mathx: Softmax length mismatch")
	}
	m := Max(logits)
	var sum float64
	for i, l := range logits {
		e := Exp(l - m)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// EWMA holds an exponentially weighted moving average. The zero value is not
// ready for use; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger alpha
// weights recent samples more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("mathx: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Update folds x into the average and returns the new value. The first sample
// initializes the average exactly.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// WindowedMax tracks the maximum of samples seen within a sliding window of
// virtual time. It is the filter BBR uses for bandwidth estimation.
type WindowedMax struct {
	window  float64
	samples []timedSample
}

// WindowedMin tracks the minimum of samples seen within a sliding window of
// virtual time. It is the filter BBR uses for min-RTT estimation.
type WindowedMin struct {
	window  float64
	samples []timedSample
}

type timedSample struct {
	t, v float64
}

// NewWindowedMax returns a max-filter over the given time window (seconds).
func NewWindowedMax(window float64) *WindowedMax {
	return &WindowedMax{window: window}
}

// Update inserts sample v observed at time t and returns the current max.
// Times must be non-decreasing.
func (w *WindowedMax) Update(t, v float64) float64 {
	// Drop samples that fell out of the window, then drop trailing samples
	// dominated by v (monotonic deque).
	i := 0
	for i < len(w.samples) && w.samples[i].t < t-w.window {
		i++
	}
	w.samples = w.samples[i:]
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v <= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedSample{t, v})
	return w.samples[0].v
}

// Value returns the current max, or 0 if no sample is in the window.
func (w *WindowedMax) Value() float64 {
	if len(w.samples) == 0 {
		return 0
	}
	return w.samples[0].v
}

// Reset discards all samples.
func (w *WindowedMax) Reset() { w.samples = w.samples[:0] }

// NewWindowedMin returns a min-filter over the given time window (seconds).
func NewWindowedMin(window float64) *WindowedMin {
	return &WindowedMin{window: window}
}

// Update inserts sample v observed at time t and returns the current min.
// Times must be non-decreasing.
func (w *WindowedMin) Update(t, v float64) float64 {
	i := 0
	for i < len(w.samples) && w.samples[i].t < t-w.window {
		i++
	}
	w.samples = w.samples[i:]
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v >= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedSample{t, v})
	return w.samples[0].v
}

// Value returns the current min, or +Inf if no sample is in the window.
func (w *WindowedMin) Value() float64 {
	if len(w.samples) == 0 {
		return math.Inf(1)
	}
	return w.samples[0].v
}

// Reset discards all samples.
func (w *WindowedMin) Reset() { w.samples = w.samples[:0] }

// Resize returns s with length n, reusing its storage when its capacity
// holds n and allocating only when it does not. The contents are
// unspecified: the caller overwrites all n elements.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
