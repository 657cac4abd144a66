// Command cceval runs a congestion-control protocol over the packet-level
// emulator, either on a trace file, on constant conditions, or against a
// saved adversary, and prints the utilization summary and time series.
//
// Usage:
//
//	cceval -protocol bbr|cubic|reno|copa|vivace|htcp -traces trace.json  # replay a trace
//	cceval -protocol bbr -bw 12 -lat 20 -loss 0.02 -dur 30      # constant link
//	cceval -protocol bbr -adversary adv.json                    # online adversary
package main

import (
	"flag"
	"fmt"
	"log"

	"advnet/internal/cc"
	"advnet/internal/core"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/stats"
	"advnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	protocol := flag.String("protocol", "bbr", cc.Names())
	tracesPath := flag.String("traces", "", "JSON trace dataset to replay (first trace)")
	advPath := flag.String("adversary", "", "run online against this saved CC adversary")
	bw := flag.Float64("bw", 12, "constant bandwidth Mbps")
	lat := flag.Float64("lat", 20, "constant one-way latency ms")
	loss := flag.Float64("loss", 0, "constant loss rate")
	dur := flag.Float64("dur", 30, "duration seconds for constant conditions")
	seed := flag.Uint64("seed", 1, "emulator seed")
	plot := flag.Bool("plot", true, "print ASCII throughput plot")
	flag.Parse()

	if _, err := cc.New(*protocol); err != nil {
		log.Fatal(err)
	}
	newCC := func() netem.CongestionController { c, _ := cc.New(*protocol); return c }

	var samples []cc.Sample
	switch {
	case *advPath != "":
		adv, err := core.LoadCCAdversary(*advPath)
		if err != nil {
			log.Fatal(err)
		}
		records := adv.RunEpisode(newCC, mathx.NewRNG(*seed), true)
		for _, r := range records {
			samples = append(samples, cc.Sample{
				Time:           r.Time,
				ThroughputMbps: r.ThroughputMbps,
				BandwidthMbps:  r.Action.BandwidthMbps,
				Utilization:    r.Utilization,
				QueueDelayS:    r.QueueDelayS,
			})
		}
	case *tracesPath != "":
		ds, err := trace.LoadJSON(*tracesPath)
		if err != nil {
			log.Fatal(err)
		}
		samples = cc.RunTrace(newCC(), ds.Traces[0],
			netem.Config{QueuePackets: 128}, mathx.NewRNG(*seed), 0.03)
	default:
		tr := trace.Constant("const", *dur, *bw, *lat, *loss)
		samples = cc.RunTrace(newCC(), tr,
			netem.Config{QueuePackets: 128}, mathx.NewRNG(*seed), 0.03)
	}

	skip := len(samples) / 3
	fmt.Printf("%s: mean utilization %.1f%% (after warmup %.1f%%), mean throughput %.2f Mbps\n",
		*protocol,
		100*cc.MeanUtilization(samples),
		100*cc.MeanUtilization(samples[skip:]),
		cc.MeanThroughput(samples))
	if *plot {
		var tput []float64
		for _, s := range samples {
			tput = append(tput, s.ThroughputMbps)
		}
		fmt.Println(stats.ASCIIPlot(tput, 72, 8, "throughput (mbps)"))
	}
}
