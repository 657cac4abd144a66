// Package stats provides the evaluation plumbing behind every figure of the
// reproduction: empirical CDFs, percentiles, ratio summaries, and simple
// ASCII rendering of series so the benchmark harness can print the same
// curves the paper plots.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"advnet/internal/mathx"
)

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Jain returns Jain's fairness index (Σx)² / (n·Σx²) over non-negative
// allocations: 1 is perfectly fair, 1/n maximally unfair. An empty or
// all-zero input reports 1.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of the first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// RatioSummary summarizes the per-trace ratio between two series, the Figure
// 2 quantity (QoE of the non-targeted protocol over QoE of the target).
type RatioSummary struct {
	Mean float64
	P95  float64
	Max  float64
	// FractionTargetWorse is the fraction of traces where the denominator
	// (the targeted protocol) did worse, i.e. ratio > 1.
	FractionTargetWorse float64
	// Clamped counts pairs whose denominator magnitude was below the
	// division guard and was clamped away from zero (sign preserved). A
	// non-zero count means some ratios are guard-scaled, not measured.
	Clamped int
}

// ratioEps is the denominator magnitude floor guarding Ratios against
// division blow-ups.
const ratioEps = 1e-9

// Ratios computes num[i]/den[i] summaries. Pairs whose denominator
// magnitude is below ratioEps are clamped symmetrically away from zero —
// the sign is preserved, so a negative-QoE denominator yields a negative
// ratio rather than a sign-flipped absurd magnitude — and counted in
// Clamped (QoE can be near zero or negative on adversarial traces; the
// paper plots ratios of positive per-video QoE, so callers should shift to
// a positive scale first — see ShiftPositive).
func Ratios(num, den []float64) RatioSummary {
	if len(num) != len(den) || len(num) == 0 {
		panic("stats: Ratios needs equal non-empty slices")
	}
	rs := make([]float64, len(num))
	worse := 0
	clamped := 0
	for i := range num {
		d := den[i]
		if math.Abs(d) < ratioEps {
			// Exactly zero (of either float sign) clamps positive.
			if d < 0 {
				d = -ratioEps
			} else {
				d = ratioEps
			}
			clamped++
		}
		rs[i] = num[i] / d
		if rs[i] > 1 {
			worse++
		}
	}
	return RatioSummary{
		Mean:                Mean(rs),
		P95:                 Percentile(rs, 95),
		Max:                 mathx.Max(rs),
		FractionTargetWorse: float64(worse) / float64(len(rs)),
		Clamped:             clamped,
	}
}

// ShiftPositive returns copies of the slices shifted by a common offset so
// every value is at least floor (> 0). It returns the applied offset.
func ShiftPositive(floor float64, series ...[]float64) ([][]float64, float64) {
	lo := math.Inf(1)
	for _, s := range series {
		for _, v := range s {
			if v < lo {
				lo = v
			}
		}
	}
	offset := 0.0
	if lo < floor {
		offset = floor - lo
	}
	out := make([][]float64, len(series))
	for i, s := range series {
		out[i] = make([]float64, len(s))
		for j, v := range s {
			out[i][j] = v + offset
		}
	}
	return out, offset
}

// ASCIIPlot renders a series as a crude terminal plot (height rows), for the
// time-series figures (3, 5, 6).
func ASCIIPlot(series []float64, width, height int, label string) string {
	if len(series) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	// Downsample to width columns.
	cols := make([]float64, width)
	for i := range cols {
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range series[lo:min(hi, len(series))] {
			sum += v
		}
		cols[i] = sum / float64(hi-lo)
	}
	minV, maxV := Min(cols), mathx.Max(cols)
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for cIdx, v := range cols {
		row := int((v - minV) / (maxV - minV) * float64(height-1))
		grid[height-1-row][cIdx] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [min=%.3g max=%.3g]\n", label, minV, maxV)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
