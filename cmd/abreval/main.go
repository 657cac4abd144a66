// Command abreval evaluates ABR protocols on a trace dataset and prints a
// per-protocol QoE table (mean, percentiles) plus CDF rows.
//
// Usage:
//
//	abreval -traces traces.json [-protocols bb,mpc,rate] [-replay chunk|wall]
//
// With -generate N the dataset is synthesized instead of read:
//
//	abreval -generate 50 -kind random|fcc|3g
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"advnet/internal/abr"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	tracesPath := flag.String("traces", "", "JSON trace dataset (from advtrain or SaveJSON)")
	generate := flag.Int("generate", 0, "synthesize this many traces instead of reading a file")
	kind := flag.String("kind", "random", "generator for -generate: random, fcc, 3g")
	protos := flag.String("protocols", "bb,mpc,rate,bola", "comma-separated protocols: "+abr.Names())
	replay := flag.String("replay", "chunk", "replay semantic: chunk (per-chunk bandwidth) or wall (wall-time)")
	seed := flag.Uint64("seed", 1, "seed for generation")
	workers := flag.Int("workers", 1, "parallel evaluation sessions (>1 fans traces out across goroutines; results are identical for any value)")
	flag.Parse()

	var ds *trace.Dataset
	var err error
	switch {
	case *tracesPath != "":
		ds, err = trace.LoadJSON(*tracesPath)
		if err != nil {
			log.Fatal(err)
		}
	case *generate > 0:
		rng := mathx.NewRNG(*seed)
		switch *kind {
		case "random":
			cfg := trace.RandomConfig{Points: 48, Duration: 4, BandwidthLo: 0.8, BandwidthHi: 4.8, LatencyLo: 40}
			ds = trace.GenerateRandomDataset(rng, cfg, *generate, "random")
		case "fcc":
			ds = trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), *generate, "fcc")
		case "3g":
			ds = trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), *generate, "3g")
		default:
			log.Fatalf("unknown -kind %q", *kind)
		}
	default:
		log.Fatal("need -traces FILE or -generate N")
	}

	video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
	fmt.Printf("dataset %q: %d traces, %d-chunk video\n\n", ds.Name, len(ds.Traces), video.NumChunks())

	for _, name := range strings.Split(*protos, ",") {
		p, err := abr.New(strings.TrimSpace(name))
		if err != nil {
			log.Fatalf("%v; trained Pensieve models need the library API", err)
		}
		var q []float64
		if *replay == "chunk" {
			q, err = core.EvaluateABRChunked(video, ds, p, 0.08, *workers)
		} else {
			q, err = core.EvaluateABR(video, ds, p, 0.08, *workers)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s mean=%7.3f  p5=%7.3f  p50=%7.3f  p95=%7.3f\n",
			p.Name(), stats.Mean(q), stats.Percentile(q, 5), stats.Percentile(q, 50), stats.Percentile(q, 95))
	}
}
