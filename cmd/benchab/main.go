// Command benchab is the repository's one performance ruler, a driver for the
// benchmark BENCHMARK.json declares (bench/e2e). It answers two questions and
// keeps them apart, because a machine can decide only one of them alone:
//
//	benchab check    is it still correct and allocation-neutral?  (make bench-check, CI)
//	benchab ab       did the timings move?                        (make bench-ab, a PR body)
//	benchab record   rewrite bench/allocs.json after an intentional allocation change
//
// check runs every workload for a few seconds and fails on an incorrect run,
// a failed operation, or an allocation counter worse than the committed
// reference (bench/allocs.json) by more than that metric's bound: facts that
// do not depend on the machine (a run that is not sound is repeated once,
// because serve_mix also calls a run incorrect when the machine starved its
// paced load generator). Timings are judged only by ab: it extracts
// the base commit into .bench_build/ab/<sha>, alternates runs of base and
// working tree (alternating which side goes first, one seed per pair), prints
// every run, and gives each workload × end-to-end metric the verdict of the
// simplicity-review guide. Metric names, directions, bounds, the run length
// and the command all come from BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"advnet/internal/stats"
)

const (
	specPath   = "BENCHMARK.json"
	allocsPath = "bench/allocs.json"
	// checkSeconds is the timed phase of a check run: the allocation
	// counters are per-unit medians and the digests per-unit facts, so the
	// harness's minimum of 24 timed units decides how long a run takes.
	checkSeconds = 3
)

// metric is one end-to-end metric as BENCHMARK.json states it.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json this command reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

func (sp *spec) names() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// allocRef is bench/allocs.json: workload → allocation counter → reference.
type allocRef map[string]map[string]float64

// run is the last line of a benchmark run's standard output.
type run struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (r run) sound() bool { return r.Correct && r.Failed == 0 }

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// parseRun decodes the result line that ends a run's standard output.
func parseRun(stdout []byte) (run, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r run
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return r, nil
}

// measure runs one workload of the benchmark in the checkout at dir.
func measure(sp *spec, dir, workload string, seed int, seconds float64) (run, error) {
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	r, err := parseRun(out)
	if err == nil && !r.sound() {
		os.Stderr.Write(out) // the run's notes say which rule it broke
	}
	return r, err
}

// worsening is how far v is on the wrong side of base, as a share of base.
func worsening(m metric, base, v float64) float64 {
	if m.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// checkRun judges one short run: its correctness, and every counter the
// reference names against the bound BENCHMARK.json gives that metric. The
// report holds observed and reference for each counter, passing or not.
func checkRun(sp *spec, ref map[string]float64, workload string, r run) (report string, ok bool) {
	var b strings.Builder
	ok = r.sound()
	fmt.Fprintf(&b, "%-14s correct %v, %d ops attempted, %d failed\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, m := range sp.EndToEnd {
		want, named := ref[m.Name]
		if !named {
			continue
		}
		got, reported := r.Metrics[m.Name]
		verdict := "ok"
		if w := worsening(m, want, got.Value); !reported || w > m.Bound {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(&b, "%-14s %-18s observed %12.6g  reference %12.6g  %+6.2f%% (may worsen by %g%%)  %s\n",
			workload, m.Name, got.Value, want, 100*(got.Value-want)/want, 100*m.Bound, verdict)
	}
	return b.String(), ok
}

// check is `make bench-check`; with rewrite set it is `benchab record`, which
// replaces the reference with what it observed instead of judging against it.
func check(sp *spec, rewrite bool) error {
	ref := allocRef{}
	if err := readJSON(allocsPath, &ref); err != nil {
		return err
	}
	failed := false
	for _, w := range sp.names() {
		r, err := measure(sp, ".", w, 1, checkSeconds)
		if err == nil && !r.sound() {
			// What the code gets wrong it gets wrong again; what a busy machine
			// does to a paced load generator it rarely does twice.
			fmt.Printf("%-14s incorrect or failing run (its output is above); running it once more\n", w)
			r, err = measure(sp, ".", w, 1, checkSeconds)
		}
		if err != nil {
			return err
		}
		if rewrite {
			for name := range ref[w] {
				ref[w][name] = r.Metrics[name].Value
			}
		}
		report, ok := checkRun(sp, ref[w], w, r)
		fmt.Print(report)
		failed = failed || !ok
	}
	if failed {
		return fmt.Errorf("check failed; if an allocation counter moved on purpose, `go run ./cmd/benchab record` rewrites %s", allocsPath)
	}
	if !rewrite {
		return nil
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(allocsPath, append(data, '\n'), 0o644)
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first and third quartile the way bench/e2e --aa and
// Python's statistics.quantiles(xs, n=4) take them (exclusive method), the
// convention the bounds in bench/e2e/README.md were argued in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Max(0, math.Min(math.Floor(pos), float64(n-2))))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// verdict is one row of the paired table.
type verdict struct {
	parent, change float64 // medians
	q1, q3         float64 // the parent's quartiles
	spread         float64 // the wider side's inter-quartile distance over its median
	wins, pairs    int     // pairs the change won; ties count for neither side
	word           string
}

// judge applies the simplicity-review rule to one metric of one workload;
// parent[i] and change[i] are the two runs of pair i. Fewer than ten pairs
// can show that nothing regressed, never a gain.
func judge(m metric, parent, change []float64) verdict {
	v := verdict{parent: median(parent), change: median(change), pairs: len(parent)}
	v.q1, v.q3 = quartiles(parent)
	c1, c3 := quartiles(change)
	v.spread = math.Max((v.q3-v.q1)/v.parent, (c3-c1)/v.change)
	apart := true // every run of the change reads better than every run of the parent
	for i := range parent {
		if worsening(m, parent[i], change[i]) < 0 {
			v.wins++
		}
		for _, c := range change {
			apart = apart && worsening(m, parent[i], c) < 0
		}
	}
	worse := worsening(m, v.parent, v.change)
	switch {
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && -worse*v.parent > v.q3-v.q1:
		v.word = "improved"
	case v.spread > m.Bound && !apart:
		v.word = "unresolved (spread exceeds the bound)"
	case worse > m.Bound:
		v.word = "REGRESSION"
	default:
		v.word = "no regression"
	}
	return v
}

// extract puts the committed files of ref under .bench_build/ab/<sha>, once
// per commit, and returns that directory and the commit.
func extract(ref string) (dir, sha string, err error) {
	out, err := exec.Command("git", "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("base %q is not a commit: %w", ref, err)
	}
	sha = strings.TrimSpace(string(out))
	dir = filepath.Join(".bench_build", "ab", sha)
	if _, err := os.Stat(dir); err == nil {
		return dir, sha, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", sha)
	untar := exec.Command("tar", "-x", "-C", tmp)
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", "", err
	}
	if err := untar.Start(); err != nil {
		return "", "", err
	}
	if err := archive.Run(); err != nil {
		return "", "", fmt.Errorf("git archive %s: %w", sha, err)
	}
	if err := untar.Wait(); err != nil {
		return "", "", fmt.Errorf("tar: %w", err)
	}
	return dir, sha, os.Rename(tmp, dir)
}

// ab is `make bench-ab`.
func ab(sp *spec, base string, pairs int, workloads []string) error {
	if base == "" {
		out, err := exec.Command("git", "merge-base", "HEAD", "main").Output()
		if err != nil {
			return fmt.Errorf("git merge-base HEAD main: %w", err)
		}
		base = strings.TrimSpace(string(out))
	}
	baseDir, sha, err := extract(base)
	if err != nil {
		return err
	}
	fmt.Printf("parent = %s, change = working tree; %d pairs of %g s runs, seed = pair number\n", sha, pairs, sp.RunSeconds)
	sides := [2]struct{ name, dir string }{{"parent", baseDir}, {"change", "."}}
	regressed := false
	var table strings.Builder
	fmt.Fprintf(&table, "%-14s %-18s %12s %25s %12s %8s %6s %7s %6s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "delta", "wins", "spread", "bound", "verdict")
	for _, w := range workloads {
		var values [2]map[string][]float64
		var unsound [2]int
		values[0], values[1] = map[string][]float64{}, map[string][]float64{}
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // odd pairs run the change first
				r, err := measure(sp, sides[side].dir, w, p+1, sp.RunSeconds)
				if err != nil {
					return err
				}
				fmt.Printf("%-14s pair %2d %s:", w, p+1, sides[side].name)
				for _, m := range sp.EndToEnd {
					values[side][m.Name] = append(values[side][m.Name], r.Metrics[m.Name].Value)
					fmt.Printf(" %s %.6g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Printf(" correct %v attempted %d failed %d\n", r.Correct, r.Attempted, r.Failed)
				if !r.sound() {
					unsound[side]++
				}
			}
		}
		for _, m := range sp.EndToEnd {
			v := judge(m, values[0][m.Name], values[1][m.Name])
			regressed = regressed || v.word == "REGRESSION"
			fmt.Fprintf(&table, "%-14s %-18s %12.6g %25s %12.6g %+7.1f%% %3d/%-2d %6.1f%% %5g%%  %s\n",
				w, m.Name, v.parent, fmt.Sprintf("[%.6g, %.6g]", v.q1, v.q3), v.change,
				100*(v.change-v.parent)/v.parent, v.wins, v.pairs, 100*v.spread, 100*m.Bound, v.word)
		}
		if unsound[1] > unsound[0] {
			regressed = true
			fmt.Fprintf(&table, "%-14s %d incorrect or failing runs of the change against %d of the parent: FAIL\n", w, unsound[1], unsound[0])
		}
	}
	fmt.Printf("\n%s", table.String())
	if regressed {
		return fmt.Errorf("the change regresses against %s", sha)
	}
	return nil
}

func main() {
	err := fmt.Errorf("usage: benchab check | record | ab [-base ref] [-pairs n] [-workloads a,b]")
	var sp spec
	if e := readJSON(specPath, &sp); e != nil {
		err = fmt.Errorf("run from the root of the repository: %w", e)
	} else if len(os.Args) > 1 {
		switch mode := os.Args[1]; mode {
		case "check", "record":
			err = check(&sp, mode == "record")
		case "ab":
			fs := flag.NewFlagSet("benchab ab", flag.ExitOnError)
			base := fs.String("base", "", "commit to compare the working tree against (default: merge-base of HEAD and main)")
			pairs := fs.Int("pairs", 10, "pairs of parent/change runs per workload (at least 1)")
			subset := fs.String("workloads", strings.Join(sp.names(), ","), "comma-separated workloads to run")
			fs.Parse(os.Args[2:]) // ExitOnError: Parse does not return an error
			err = ab(&sp, *base, max(*pairs, 1), strings.Split(*subset, ","))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}
