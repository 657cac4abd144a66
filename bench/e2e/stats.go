package main

import (
	"math"
	"sort"
)

// fastest returns the smallest sample. Interference on a shared box only
// ever adds time to a single-goroutine unit, so the minimum of many short
// units repeats run to run where their median does not (README, noise table).
func fastest(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. It sorts a copy; xs is left untouched. The
// benchmark keeps its own statistics rather than calling internal/stats: a
// ruler must read the same after the code it measures has been changed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method), so -aa
// prints the number the acceptance rule is written in.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1))/4 - 1
		if pos <= 0 {
			// Python extrapolates from the first two points below the range.
			return s[0] + (s[1]-s[0])*pos
		}
		if pos >= float64(n-1) {
			return s[n-1] + (s[n-1]-s[n-2])*(pos-float64(n-1))
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (at(3) - at(1)) / median(s)
}

// dueLatencies turns completion instants into open-loop latencies: each
// request is timed from the instant it was due, not from when the generator
// got round to sending it, so a stalled generator lengthens the latency of
// everything it delayed instead of hiding it.
func dueLatencies(dueNs, doneNs []int64) []float64 {
	out := make([]float64, len(dueNs))
	for i := range dueNs {
		out[i] = float64(doneNs[i]-dueNs[i]) / 1e3
	}
	return out
}
