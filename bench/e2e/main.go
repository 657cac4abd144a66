// Command e2e is the repository's benchmark: five long-run workloads
// against the packages' public functions, end-to-end metrics with tracing
// off, per-layer metrics from a separate traced run, and output
// verification on every unit. See README.md for what each number means and
// BENCHMARK.json (repository root) for the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

var workloads = []workload{
	{
		name:  "robustify_abr",
		op:    "env step or evaluated chunk",
		setup: setupRobustify,
	},
	{
		name:  "adversary_cc",
		op:    "30 ms emulator interval",
		setup: setupAdversaryCC,
	},
	{
		name:  "swarm_fluid",
		op:    "scheduler event",
		setup: setupSwarmFluid,
	},
	{
		name:  "dist_loopback",
		op:    "lane env step",
		setup: setupDistLoopback,
	},
	{
		name:       "serve_mix",
		op:         "paced request, timed from its due instant",
		medianUnit: true,
		setup:      setupServeMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// units of the metrics, as BENCHMARK.json states them.
var endToEndUnits = map[string]string{
	mSetup: "s", mUnit: "s", mOp: "us", mAllocs: "count", mAllocMB: "MB",
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func printResult(w workload, res result, units map[string]string) error {
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, n := range names {
		fmt.Printf("%-14s %-28s %14.6g %s\n", w.name, n, res.values[n], units[n])
		line.Metrics[n] = metricJSON{Value: res.values[n], Unit: units[n]}
	}
	for _, note := range res.notes {
		fmt.Printf("%-14s note: %s\n", w.name, note)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run (empty = all, one after the other)")
	seed := flag.Uint64("seed", 1, "every input derives from this")
	seconds := flag.Float64("seconds", 18, "how long the timed phase of a run lasts")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans here as JSON at exit")
	aa := flag.Bool("aa", false, "self-check: run every workload in two sets of three and compare them against the bounds")
	spec := flag.String("spec", "BENCHMARK.json", "contract file -aa takes the bounds from")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace != 0, *traceOut, *aa, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, traceOut string, aa bool, spec string) error {
	if aa {
		return selfCheck(spec, seed, seconds)
	}
	todo := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{w}
	}
	for _, w := range todo {
		fmt.Printf("%-14s seed %d, %.0f s, one op = %s\n", w.name, seed, seconds, w.op)
		if traced {
			res, err := traceRun(w, seed, seconds, traceOut)
			if err != nil {
				return err
			}
			if err := printResult(w, res, layerUnits); err != nil {
				return err
			}
			continue
		}
		res, err := measure(w, seed, seconds)
		if err != nil {
			return err
		}
		verdict := "verified"
		if !res.correct {
			verdict = "WRONG"
		}
		fmt.Printf("%-14s %d timed units, %d ops attempted, %d failed, outputs %s\n", w.name, res.units, res.attempted, res.failed, verdict)
		if err := printResult(w, res, endToEndUnits); err != nil {
			return err
		}
	}
	return nil
}
