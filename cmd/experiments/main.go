// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-full] [-seed N] [-lanes N] [artifact|all]
//
// where artifact is one of table1, fig1, fig2, fig3, fig4, fig5, fig6,
// ablations, routing or regression (fig1/fig2 and fig5/fig6 each name one
// shared run). By default it runs with the reduced Fast budgets (a few
// minutes for everything); -full uses budgets comparable to the paper's
// (600k adversary steps, 200 evaluation traces) and takes correspondingly
// longer. -lanes (every training's lane count) changes results; GOMAXPROCS
// does not.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"advnet/internal/experiments"
)

// artifact is one run of the pipeline; it answers to every name in names.
type artifact struct {
	names []string
	run   func(experiments.Config) (fmt.Stringer, error)
}

var artifacts = []artifact{
	{[]string{"table1"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.Table1(c), nil }},
	{[]string{"fig1", "fig2"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.Figure1And2(c) }},
	{[]string{"fig3"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.Figure3(c), nil }},
	{[]string{"fig4"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.Figure4(c) }},
	{[]string{"fig5", "fig6"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.Figure5And6(c) }},
	{[]string{"ablations"}, ablations},
	{[]string{"routing"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.ExtensionRouting(c) }},
	{[]string{"regression"}, func(c experiments.Config) (fmt.Stringer, error) { return experiments.ExtensionRegression(c) }},
}

// stringers renders each element in turn, one blank line apart.
type stringers []fmt.Stringer

func (s stringers) String() string {
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = x.String()
	}
	return strings.Join(parts, "\n")
}

// ablations runs the five ablations of DESIGN.md §5 as one artifact.
func ablations(c experiments.Config) (fmt.Stringer, error) {
	sm, err := experiments.AblationSmoothing(c)
	if err != nil {
		return nil, err
	}
	ob, err := experiments.AblationOptBaseline(c)
	if err != nil {
		return nil, err
	}
	rf := experiments.AblationReplayFidelity(c)
	ot, err := experiments.AblationOnlineVsTraceBased(c)
	if err != nil {
		return nil, err
	}
	ns, err := experiments.AblationNetSize(c)
	if err != nil {
		return nil, err
	}
	return stringers{sm, ob, rf, ot, ns}, nil
}

func main() {
	log.SetFlags(0)
	full := flag.Bool("full", false, "use paper-scale budgets")
	seed := flag.Uint64("seed", 1, "experiment seed")
	lanes := flag.Int("lanes", 1, "rollout lanes of every training (trained results depend on it, not on GOMAXPROCS)")
	var names []string
	for _, a := range artifacts {
		names = append(names, a.names...)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] [%s|all]\n", strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := experiments.Fast()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	cfg.Lanes = *lanes

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if which != "all" && !slices.Contains(names, which) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		flag.Usage()
		os.Exit(2)
	}

	for _, a := range artifacts {
		if which != "all" && !slices.Contains(a.names, which) {
			continue
		}
		label := strings.Join(a.names, "+")
		start := time.Now()
		res, err := a.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Println(res)
		fmt.Printf("[%s completed in %v]\n\n", label, time.Since(start).Round(time.Second))
	}
}
