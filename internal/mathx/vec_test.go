package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxArgMax(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	if Max(xs) != 7 {
		t.Error("Max")
	}
	if ArgMax(xs) != 2 {
		t.Error("ArgMax should pick first max")
	}
}

func TestDotAXPYScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	y := CopyOf(b)
	Scale(0.5, y)
	if y[0] != 2 || y[2] != 3 || b[0] != 4 {
		t.Fatalf("Scale result %v", y)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound the inputs to avoid NaN from quick's extreme values.
		logits := []float64{
			Clamp(a, -1e6, 1e6),
			Clamp(b, -1e6, 1e6),
			Clamp(c, -1e6, 1e6),
		}
		out := make([]float64, 3)
		Softmax(logits, out)
		sum := sumOf(out)
		for _, p := range out {
			if p < 0 || math.IsNaN(p) {
				return false
			}
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := []float64{1000, 1001, 999}
	out := make([]float64, 3)
	Softmax(logits, out)
	if sum := sumOf(out); math.IsNaN(sum) || !almostEq(sum, 1, 1e-9) {
		t.Fatalf("softmax unstable: %v", out)
	}
	if ArgMax(out) != 1 {
		t.Fatalf("softmax argmax wrong: %v", out)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA claims initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := e.Update(0); got != 5 {
		t.Errorf("second update = %v, want 5", got)
	}
	if !e.Initialized() || e.Value() != 5 {
		t.Error("EWMA state wrong")
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEWMA(0) did not panic")
		}
	}()
	NewEWMA(0)
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(10)
	if w.Value() != 0 {
		t.Error("empty max should be 0")
	}
	w.Update(0, 5)
	w.Update(1, 3)
	if w.Value() != 5 {
		t.Errorf("max = %v", w.Value())
	}
	// Old sample (t=0) falls out at t=11.
	if got := w.Update(11, 1); got != 3 {
		t.Errorf("after expiry max = %v, want 3", got)
	}
	w.Update(12, 100)
	if w.Value() != 100 {
		t.Error("new max not picked up")
	}
	w.Reset()
	if w.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestWindowedMin(t *testing.T) {
	w := NewWindowedMin(10)
	if !math.IsInf(w.Value(), 1) {
		t.Error("empty min should be +Inf")
	}
	w.Update(0, 5)
	w.Update(1, 8)
	if w.Value() != 5 {
		t.Errorf("min = %v", w.Value())
	}
	if got := w.Update(11, 9); got != 8 {
		t.Errorf("after expiry min = %v, want 8", got)
	}
}

func TestWindowedFiltersMatchBruteForce(t *testing.T) {
	r := NewRNG(99)
	const window = 5.0
	maxF := NewWindowedMax(window)
	minF := NewWindowedMin(window)
	type sample struct{ t, v float64 }
	var hist []sample
	tNow := 0.0
	for i := 0; i < 2000; i++ {
		tNow += r.Uniform(0, 0.5)
		v := r.Uniform(-10, 10)
		hist = append(hist, sample{tNow, v})
		gotMax := maxF.Update(tNow, v)
		gotMin := minF.Update(tNow, v)
		wantMax := math.Inf(-1)
		wantMin := math.Inf(1)
		for _, s := range hist {
			if s.t >= tNow-window {
				wantMax = math.Max(wantMax, s.v)
				wantMin = math.Min(wantMin, s.v)
			}
		}
		if gotMax != wantMax || gotMin != wantMin {
			t.Fatalf("step %d: got (max=%v,min=%v), want (max=%v,min=%v)",
				i, gotMax, gotMin, wantMax, wantMin)
		}
	}
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
