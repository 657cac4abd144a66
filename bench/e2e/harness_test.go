package main

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"advnet/internal/mathx"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestFastestMedianQuantile(t *testing.T) {
	xs := []float64{0.48, 0.45, 0.61, 0.47, 0.52}
	if got := fastest(xs); got != 0.45 {
		t.Errorf("fastest = %v, want 0.45", got)
	}
	if got := median(xs); got != 0.48 {
		t.Errorf("median = %v, want 0.48", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10, 20, 30, 40}, 0.9); !near(got, 36) {
		t.Errorf("p90 = %v, want 36", got)
	}
	if !reflect.DeepEqual(xs, []float64{0.48, 0.45, 0.61, 0.47, 0.52}) {
		t.Error("a statistic reordered its input")
	}
}

// The spread must be the number Python's statistics.quantiles(v, n=4) gives,
// because the acceptance rule is written in it.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// >>> q = statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// >>> q  ->  [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([1, 2, 4], n=4)  ->  [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 3.0/2.0; !near(got, want) {
		t.Errorf("spread of [1 2 4] = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([1, 3], n=4)  ->  [0.5, 2.0, 3.5]
	if got, want := quartileSpread([]float64{1, 3}), 3.0/2.0; !near(got, want) {
		t.Errorf("spread of [1 3] = %v, want %v", got, want)
	}
}

// A request is timed from when it was due: one sent 3 ms late that took
// 1 ms to serve has a latency of 4 ms, not 1 ms.
func TestDueLatencies(t *testing.T) {
	due := []int64{0, 1_000_000, 2_000_000}
	done := []int64{200_000, 1_300_000, 6_000_000} // the third was sent 3 ms late and served in 1 ms
	got := dueLatencies(due, done)
	want := []float64{200, 300, 4000}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("due-time latencies %v, want %v", got, want)
	}
}

func TestPacedScheduleDeterministic(t *testing.T) {
	due1, idx1 := pacedSchedule(mathx.NewRNG(7), 40000, 0.05)
	due2, idx2 := pacedSchedule(mathx.NewRNG(7), 40000, 0.05)
	if !reflect.DeepEqual(due1, due2) || !reflect.DeepEqual(idx1, idx2) {
		t.Fatal("the same seed gave two different schedules")
	}
	due3, idx3 := pacedSchedule(mathx.NewRNG(8), 40000, 0.05)
	if reflect.DeepEqual(due1, due3) || reflect.DeepEqual(idx1, idx3) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(due1) != 2000 {
		t.Fatalf("%d arrivals for 40000/s over 0.05 s, want 2000", len(due1))
	}
	if !sort.SliceIsSorted(due1, func(i, j int) bool { return due1[i] < due1[j] }) {
		t.Error("arrival instants are not in order")
	}
	// Poisson arrivals at 40 000/s: 2000 of them span about 50 ms.
	if span := float64(due1[len(due1)-1]) / 1e6; span < 42 || span > 58 {
		t.Errorf("2000 arrivals span %.1f ms, want about 50", span)
	}
	for _, i := range idx1 {
		if i < 0 || int(i) >= observations {
			t.Fatalf("observation index %d out of range", i)
		}
	}
}

// allocInstance allocates a known number of objects per unit, and more in
// verify — which the harness calls outside the counted window.
type allocInstance struct {
	perUnit int
	keep    [][]byte
}

func (a *allocInstance) unit(*spans) (unitOut, error) {
	a.keep = a.keep[:0]
	for i := 0; i < a.perUnit; i++ {
		a.keep = append(a.keep, make([]byte, 1000))
	}
	return unitOut{ops: 1, verify: func() ([32]byte, int64) {
		junk := make([][]byte, 0, 64)
		for i := 0; i < 5000; i++ { // would swamp the count if it were inside the window
			junk = append(junk[:0], make([]byte, 100))
		}
		return [32]byte{}, 0
	}}, nil
}

func (a *allocInstance) close() error { return nil }

func TestAllocAccountingExcludesHarness(t *testing.T) {
	const perUnit = 2000
	w := workload{name: "alloc", setup: func(uint64) (instance, error) {
		return &allocInstance{perUnit: perUnit, keep: make([][]byte, 0, perUnit)}, nil
	}}
	res, err := measure(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The unit allocates perUnit slices and one closure; the harness's sample
	// buffers, the digest check and verify's 5000 objects must not show.
	if got := res.values[mAllocs]; got < perUnit || got > perUnit+20 {
		t.Errorf("allocs_per_unit = %v, want %d to %d", got, perUnit, perUnit+20)
	}
	if got := res.values[mAllocMB]; got < 2.0 || got > 2.1 {
		t.Errorf("alloc_mb_per_unit = %v, want about 2.05", got)
	}
	if res.units != minUnits || res.attempted != minUnits || res.failed != 0 || !res.correct {
		t.Errorf("run = %+v, want %d correct units", res, minUnits)
	}
}

// flakyInstance returns a different digest on its fifth unit and reports one
// failed op there.
type flakyInstance struct{ n int }

func (f *flakyInstance) unit(*spans) (unitOut, error) {
	f.n++
	n := f.n
	return unitOut{ops: 10, verify: func() (sum [32]byte, failed int64) {
		if n == warmUnits+5 {
			sum[0], failed = 1, 1
		}
		return sum, failed
	}}, nil
}

func (f *flakyInstance) close() error { return nil }

func TestDigestMismatchAndFailedOpsAreFatal(t *testing.T) {
	w := workload{name: "flaky", setup: func(uint64) (instance, error) { return &flakyInstance{}, nil }}
	res, err := measure(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Error("a unit with a different digest left the run marked correct")
	}
	if res.failed != 1 || res.attempted != 10*minUnits {
		t.Errorf("failed %d of %d, want 1 of %d", res.failed, res.attempted, 10*minUnits)
	}
}

func TestSpansSelfTime(t *testing.T) {
	var none *spans
	none.beginUnit()
	none.end(none.begin("x")) // a nil recorder records nothing and does not panic
	none.endUnit()

	sp := newSpans()
	sp.beginUnit()
	a := sp.begin("a")
	sp.end(a)
	b := sp.begin("b")
	sp.end(b)
	sp.endUnit()
	// Fix the clock readings so the arithmetic is exact.
	sp.list[0].Start, sp.list[0].End = 0, 100
	sp.list[a].Start, sp.list[a].End = 10, 40
	sp.list[b].Start, sp.list[b].End = 50, 90
	sp.finish()
	if sp.list[0].Name != "unit" || sp.list[a].Parent != 0 || sp.list[b].Parent != 0 || sp.list[0].Parent != -1 {
		t.Fatalf("span tree %+v", sp.list)
	}
	if got := sp.list[0].Self; got != 30 {
		t.Errorf("root self time %d, want 100 - 30 - 40 = 30", got)
	}
	if sp.list[a].Self != 30 || sp.list[b].Self != 40 {
		t.Errorf("leaf self times %d %d, want 30 40", sp.list[a].Self, sp.list[b].Self)
	}
	if sp.list[a].Unit != 1 || sp.list[0].Unit != 1 {
		t.Errorf("unit ids %d %d, want 1", sp.list[0].Unit, sp.list[a].Unit)
	}
}

// The names BENCHMARK.json gates and lists must be the names the program
// prints: a metric renamed on one side only would silently stop being checked.
func TestContractNamesMatchProgram(t *testing.T) {
	c, err := readContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range c.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads in BENCHMARK.json %v, in the program %v", got, want)
	}

	got = got[:0]
	for _, m := range c.EndToEnd {
		got = append(got, m.Name)
		if u := endToEndUnits[m.Name]; u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, u)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end-to-end metrics in BENCHMARK.json %v, in the program %v", got, endToEndNames)
	}

	if len(c.PerLayer) != len(layerUnits) || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(c.PerLayer), len(layerUnits))
	}
	for _, m := range c.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s [%s] is not what the program prints (%q)", m.Name, m.Unit, u)
		}
	}
}
