package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extremes")
	}
	if Percentile(xs, 50) != 3 {
		t.Errorf("median %v", Percentile(xs, 50))
	}
	// 25th percentile of 5 points: rank 1.0 exactly → 2.
	if Percentile(xs, 25) != 2 {
		t.Errorf("p25 %v", Percentile(xs, 25))
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interp %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		p = math.Mod(math.Abs(p), 100)
		got := Percentile(xs, p)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return got >= s[0]-1e-9 && got <= s[len(s)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJain(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all zero", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{3, 3, 3, 3}, 1},
		{"one-hot", []float64{0, 5, 0, 0}, 0.25},
		{"one of two", []float64{0, 2}, 0.5},
	} {
		if got := Jain(c.xs); got != c.want {
			t.Errorf("%s: Jain(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if len(c.sorted) != 4 {
		t.Error("N")
	}
	if c.At(0.5) != 0 {
		t.Error("below min")
	}
	if c.At(2) != 0.75 {
		t.Errorf("At(2) = %v", c.At(2))
	}
	if c.At(3) != 1 {
		t.Error("at max")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 3, 9, 2})
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatios(t *testing.T) {
	num := []float64{2, 3, 1}
	den := []float64{1, 1, 2}
	r := Ratios(num, den)
	if math.Abs(r.Mean-(2+3+0.5)/3) > 1e-12 {
		t.Errorf("mean %v", r.Mean)
	}
	if r.Max != 3 {
		t.Errorf("max %v", r.Max)
	}
	if math.Abs(r.FractionTargetWorse-2.0/3) > 1e-12 {
		t.Errorf("fraction %v", r.FractionTargetWorse)
	}
}

func TestRatiosGuardsZeroDenominator(t *testing.T) {
	r := Ratios([]float64{1}, []float64{0})
	if math.IsInf(r.Mean, 0) || math.IsNaN(r.Mean) {
		t.Fatalf("unguarded ratio %v", r.Mean)
	}
}

func TestShiftPositive(t *testing.T) {
	out, offset := ShiftPositive(0.1, []float64{-2, 0, 3}, []float64{1})
	if offset != 2.1 {
		t.Fatalf("offset %v", offset)
	}
	if math.Abs(out[0][0]-0.1) > 1e-12 || out[0][2] != 5.1 || out[1][0] != 3.1 {
		t.Fatalf("shifted %v", out)
	}
	// Already positive: no shift.
	_, offset = ShiftPositive(0.1, []float64{1, 2})
	if offset != 0 {
		t.Fatalf("unnecessary offset %v", offset)
	}
}

func TestASCIIPlot(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = math.Sin(float64(i) / 10)
	}
	out := ASCIIPlot(series, 40, 8, "sine")
	if !strings.Contains(out, "sine") || strings.Count(out, "\n") < 9 {
		t.Fatalf("plot:\n%s", out)
	}
	if ASCIIPlot(nil, 40, 8, "x") != "" {
		t.Fatal("empty series should render nothing")
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{3, -1, 4}
	if Min(xs) != -1 || Mean(xs) != 2 {
		t.Fatal("aggregates wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

// TestRatiosPreservesNegativeDenominatorSign: the historical guard floored
// ANY denominator <= 1e-9 to +1e-9, so a legitimately negative QoE
// denominator flipped the ratio's sign and exploded its magnitude
// (1 / -2 became 1e9). The symmetric clamp leaves healthy negative
// denominators untouched.
func TestRatiosPreservesNegativeDenominatorSign(t *testing.T) {
	r := Ratios([]float64{1, 4}, []float64{-2, 2})
	// 1/-2 = -0.5 (not 1e9), 4/2 = 2.
	if math.Abs(r.Mean-(-0.5+2)/2) > 1e-12 {
		t.Fatalf("mean %v, want %v", r.Mean, (-0.5+2)/2)
	}
	if r.Max != 2 {
		t.Fatalf("max %v, want 2", r.Max)
	}
	if r.Clamped != 0 {
		t.Fatalf("clamped %d, want 0 (both denominators are healthy)", r.Clamped)
	}
	if math.Abs(r.FractionTargetWorse-0.5) > 1e-12 {
		t.Fatalf("fraction %v, want 0.5", r.FractionTargetWorse)
	}
}

// TestRatiosClampsTowardSign: near-zero denominators clamp away from zero
// on their own side, and the clamp is counted so callers can see the
// summary is guard-scaled rather than measured.
func TestRatiosClampsTowardSign(t *testing.T) {
	r := Ratios([]float64{1, 1, 1}, []float64{0, 1e-12, -1e-12})
	if r.Clamped != 3 {
		t.Fatalf("clamped %d, want 3", r.Clamped)
	}
	if math.IsInf(r.Mean, 0) || math.IsNaN(r.Mean) {
		t.Fatalf("unguarded mean %v", r.Mean)
	}
	// Zero and +1e-12 clamp positive (ratio ~+1e9); -1e-12 clamps negative
	// (ratio ~-1e9) instead of the historical sign flip to +1e9.
	if math.Abs(r.Max-1e9) > 1 {
		t.Fatalf("max %v, want ~1e9", r.Max)
	}
	if math.Abs(r.Mean-1e9/3) > 1 {
		t.Fatalf("mean %v, want ~%v", r.Mean, 1e9/3)
	}
}
