package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The contract and the reference as committed; no test runs the benchmark.
func loadCommitted(t *testing.T) (*spec, allocRef) {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "..", specPath), &sp); err != nil {
		t.Fatal(err)
	}
	ref := allocRef{}
	if err := readJSON(filepath.Join("..", "..", allocsPath), &ref); err != nil {
		t.Fatal(err)
	}
	return &sp, ref
}

func metricNamed(t *testing.T, sp *spec, name string) metric {
	t.Helper()
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return metric{}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestAllocReferenceNamesBenchmarkCounters: bench/allocs.json carries exactly
// the two allocation counters for exactly the workloads of BENCHMARK.json, so
// a workload added to the contract cannot go ungated.
func TestAllocReferenceNamesBenchmarkCounters(t *testing.T) {
	sp, ref := loadCommitted(t)
	var got, want []string
	for w, counters := range ref {
		for name, v := range counters {
			got = append(got, w+"/"+name)
			if v <= 0 {
				t.Errorf("%s %s: reference %v carries no relative bound", w, name, v)
			}
			if m := metricNamed(t, sp, name); m.Better != "lower" || m.Bound != 0.05 {
				t.Errorf("%s is %+v in BENCHMARK.json, want lower-is-better with bound 0.05", name, m)
			}
		}
	}
	for _, w := range sp.names() {
		want = append(want, w+"/allocs_per_unit", w+"/alloc_mb_per_unit")
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bench/allocs.json names\n %v\nwant\n %v", got, want)
	}
}

// resultLine renders a run's standard output: progress lines, then the
// result line the contract puts last.
func resultLine(correct bool, failed int, metrics map[string]float64) []byte {
	var parts []string
	for name, v := range metrics {
		parts = append(parts, fmt.Sprintf(`%q:{"value":%v,"unit":"x"}`, name, v))
	}
	return []byte(fmt.Sprintf("w  seed 1, 3 s\nw  24 timed units\n"+
		`{"correct":%v,"attempted":1000,"failed":%d,"metrics":{%s}}`+"\n", correct, failed, strings.Join(parts, ",")))
}

func TestCheckRun(t *testing.T) {
	sp, _ := loadCommitted(t)
	ref := map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 20}
	for _, tc := range []struct {
		name    string
		correct bool
		failed  int
		metrics map[string]float64
		ok      bool
	}{
		{"counters-equal-pass", true, 0, map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 20}, true},
		{"counter-within-bound-passes", true, 0, map[string]float64{"allocs_per_unit": 1040, "alloc_mb_per_unit": 20}, true},
		{"counter-6pct-up-fails", true, 0, map[string]float64{"allocs_per_unit": 1060, "alloc_mb_per_unit": 20}, false},
		{"mb-6pct-up-fails", true, 0, map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 21.2}, false},
		{"counter-6pct-down-passes", true, 0, map[string]float64{"allocs_per_unit": 940, "alloc_mb_per_unit": 18.8}, true},
		{"incorrect-fails", false, 0, map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 20}, false},
		{"failed-op-fails", true, 1, map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 20}, false},
		{"missing-counter-fails", true, 0, map[string]float64{"allocs_per_unit": 1000}, false},
		// Timings are no business of the check, however bad.
		{"unreferenced-metric-ignored", true, 0, map[string]float64{"allocs_per_unit": 1000, "alloc_mb_per_unit": 20, "unit_s": 1e9}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parseRun(resultLine(tc.correct, tc.failed, tc.metrics))
			if err != nil {
				t.Fatal(err)
			}
			report, ok := checkRun(sp, ref, "w", r)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v\n%s", ok, tc.ok, report)
			}
			// Observed and reference are printed whether or not they pass.
			for name, want := range ref {
				if !strings.Contains(report, name) || !strings.Contains(report, fmt.Sprint(want)) {
					t.Fatalf("report does not show %s against %v:\n%s", name, want, report)
				}
			}
		})
	}
}

func TestParseRunRejectsOutputWithoutResult(t *testing.T) {
	for _, out := range []string{"", "w  seed 1, 3 s\nw  24 timed units\n", "e2e: unknown workload\n"} {
		if _, err := parseRun([]byte(out)); err == nil {
			t.Errorf("parseRun(%q) accepted output with no result line", out)
		}
	}
}

func TestJudge(t *testing.T) {
	sp, _ := loadCommitted(t)
	unit := metricNamed(t, sp, "unit_s") // lower is better, may worsen by 0.25
	rate := metric{Name: "req_per_s", Better: "higher", Bound: 0.25}
	// Ten runs with a quartile distance of 4% of the median.
	quiet := []float64{0.500, 0.505, 0.495, 0.510, 0.490, 0.502, 0.498, 0.515, 0.485, 0.500}
	// Ten runs with a quartile distance of about 40%: wider than the bound.
	noisy := []float64{0.40, 0.62, 0.45, 0.70, 0.50, 0.38, 0.66, 0.55, 0.42, 0.60}
	reversed := func(xs []float64) []float64 {
		out := append([]float64(nil), xs...)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	// Wins nine pairs of ten by 1%, loses the tenth: inside the parent's
	// quartile distance.
	nineWins := scaled(quiet, 0.99)
	nineWins[9] = quiet[9] * 1.01

	for _, tc := range []struct {
		name           string
		m              metric
		parent, change []float64
		word           string
		wins           int
	}{
		{"identical-runs", unit, quiet, quiet, "no regression", 0},
		// The case ±50% on single-shot wall-clock could not see.
		{"uniform-30pct-slowdown", unit, quiet, scaled(quiet, 1.30), "REGRESSION", 0},
		{"slowdown-inside-bound", unit, quiet, scaled(quiet, 1.20), "no regression", 0},
		{"throughput-drop", rate, quiet, scaled(quiet, 0.70), "REGRESSION", 0},
		{"throughput-gain", rate, quiet, scaled(quiet, 1.30), "improved", 10},
		{"improvement", unit, quiet, scaled(quiet, 0.60), "improved", 10},
		{"four-pairs-never-a-gain", unit, quiet[:4], scaled(quiet[:4], 0.60), "no regression", 4},
		{"nine-wins-inside-iqr", unit, quiet, nineWins, "no regression", 9},
		{"wide-spread-unresolved", unit, noisy, reversed(noisy), "unresolved (spread exceeds the bound)", 5},
		{"wide-spread-slowdown-unresolved", unit, noisy, scaled(reversed(noisy), 1.3), "unresolved (spread exceeds the bound)", 3},
		{"wide-spread-clear-gain", unit, noisy, scaled(noisy, 0.5), "improved", 10},
		// Every run of the change below every run of the parent, but by less
		// than the parent's quartile distance (46% of its median): not a gain,
		// and not unresolved either.
		{"wide-spread-but-apart", unit, []float64{0.9, 1.0, 1.4, 1.5}, []float64{0.80, 0.85, 0.86, 0.89}, "no regression", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.m, tc.parent, tc.change)
			if v.word != tc.word || v.wins != tc.wins || v.pairs != len(tc.parent) {
				t.Fatalf("verdict %q with %d/%d wins, want %q with %d wins\n%+v", v.word, v.wins, v.pairs, tc.word, tc.wins, v)
			}
		})
	}
}

// TestQuartilesMatchExclusiveMethod pins the quartile convention to the one
// bench/e2e's README states its spreads in: Python's
// statistics.quantiles(xs, n=4) gives [2.75, 5.5, 8.25] for 1..10 and
// [1.25, 2.5, 3.75] for 1..4.
func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 || median(ten) != 5.5 {
		t.Fatalf("1..10: q1 %v median %v q3 %v", q1, median(ten), q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || q3 != 3.75 {
		t.Fatalf("1..4: q1 %v q3 %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 3}); q1 != 0.5 || q3 != 3.5 { // extrapolates, as Python does
		t.Fatalf("1,3: q1 %v q3 %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("one run: q1 %v q3 %v", q1, q3)
	}
}
