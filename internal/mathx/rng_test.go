package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDistinctSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint32) bool {
		x := r.Float64()
		return x >= 0 && x < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform(-3,5) = %v out of range", x)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Uniform(0, 10)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Uniform(0,10) mean = %v, want ~5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestNormScaled(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormScaled(4, 2)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Fatalf("NormScaled(4,2) mean = %v, want ~4", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp(2)
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(23)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(29)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(31)
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := r.Perm(nil, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(41)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 0})]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[2])
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("weight ratio = %v, want ~2", ratio)
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(nil) did not panic")
		}
	}()
	NewRNG(1).Choice(nil)
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Split()
	// The child must not replay the parent's stream.
	a := parent.Uint64()
	b := child.Uint64()
	if a == b {
		t.Fatal("split child replays parent stream")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 32, math.MaxUint64} {
		for i := 0; i < 1000; i++ {
			if got := r.Uint64n(n); got >= n {
				t.Fatalf("Uint64n(%d) = %d, out of range", n, got)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if got := r.Uint64n(1); got != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", got)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Uint64n(0)")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestUint64nDeterminism(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 1000; i++ {
		n := uint64(i%97 + 1)
		if x, y := a.Uint64n(n), b.Uint64n(n); x != y {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, x, y)
		}
	}
}

// TestUint64nUniform pins uniformity for bounds that are not powers of two
// with a chi-square test: 64 bins, 640k draws, expected 10k per bin. The
// 99.9% critical value for 63 degrees of freedom is ~103.4; a modulo-style
// systematic bias would need to exceed noise at this sample size to fail,
// so the test is a regression net for the draw being *structurally* skewed
// (e.g. a wrong rejection threshold), not a certification of randomness.
func TestUint64nUniform(t *testing.T) {
	for _, n := range []uint64{3, 10, 63, 100} {
		r := NewRNG(12345 + n)
		counts := make([]float64, n)
		const perBin = 10_000
		draws := perBin * n
		for i := uint64(0); i < draws; i++ {
			counts[r.Uint64n(n)]++
		}
		var chi2 float64
		for _, c := range counts {
			d := c - perBin
			chi2 += d * d / perBin
		}
		// Conservative bound: 99.9% critical values for k-1 dof are 16.3
		// (k=3), 27.9 (k=10), 103.4 (k=63), 148.2 (k=100); use a common
		// generous ceiling scaled by dof.
		limit := 2.5 * float64(n-1)
		if limit < 20 {
			limit = 20
		}
		if chi2 > limit {
			t.Fatalf("Uint64n(%d): chi-square %.1f over %d draws exceeds %.1f", n, chi2, draws, limit)
		}
	}
}
