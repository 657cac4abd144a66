// Command regress is the CI front-end for the §5 "Guiding protocol
// development" workflow: record a protocol's baseline on an adversarial
// workload, then check later protocol versions against it.
//
// Usage:
//
//	regress record -traces adv.json -protocol bb -o suite.json
//	regress check  -suite suite.json -protocol bb [-tolerance 0.1]
//
// check exits non-zero when the protocol regressed beyond the tolerance,
// so it drops straight into a CI pipeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/trace"
)

func protocolByName(name string) abr.Protocol {
	p, err := abr.New(name)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: regress record|check [flags]")
		os.Exit(2)
	}
	video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())

	switch os.Args[1] {
	case "record":
		fs := flag.NewFlagSet("record", flag.ExitOnError)
		tracesPath := fs.String("traces", "", "adversarial trace dataset (JSON)")
		protoName := fs.String("protocol", "bb", "protocol to record: "+abr.Names())
		out := fs.String("o", "suite.json", "output suite path")
		rtt := fs.Float64("rtt", 0.08, "round-trip seconds")
		workers := fs.Int("workers", 1, "parallel evaluation sessions (baseline is identical for any value)")
		_ = fs.Parse(os.Args[2:])
		if *tracesPath == "" {
			log.Fatal("need -traces FILE (generate one with advtrain -traces-out)")
		}
		ds, err := trace.LoadJSON(*tracesPath)
		if err != nil {
			log.Fatal(err)
		}
		suite, err := core.NewABRRegressionSuite(video, protocolByName(*protoName), ds, *rtt, *workers)
		if err != nil {
			log.Fatal(err)
		}
		if err := suite.Save(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %s baseline on %d traces: mean QoE %.3f, p5 %.3f -> %s",
			*protoName, len(ds.Traces), suite.BaselineMeanQoE, suite.BaselineP5QoE, *out)

	case "check":
		fs := flag.NewFlagSet("check", flag.ExitOnError)
		suitePath := fs.String("suite", "suite.json", "suite recorded by `regress record`")
		protoName := fs.String("protocol", "bb", "protocol to check: "+abr.Names())
		tolerance := fs.Float64("tolerance", 0.1, "allowed mean-QoE drop before failing")
		workers := fs.Int("workers", 1, "parallel evaluation sessions (measurements are identical for any value)")
		_ = fs.Parse(os.Args[2:])
		suite, err := core.LoadABRRegressionSuite(*suitePath)
		if err != nil {
			log.Fatal(err)
		}
		res, err := suite.Check(video, protocolByName(*protoName), *tolerance, *workers)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mean QoE %.3f (baseline %+.3f), p5 %.3f (baseline %+.3f)\n",
			res.MeanQoE, res.MeanDelta, res.P5QoE, res.P5Delta)
		if !res.Passed {
			fmt.Println("REGRESSION: mean QoE dropped beyond tolerance")
			os.Exit(1)
		}
		fmt.Println("ok")

	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
}
