// Command disttrain trains a registered domain across multiple OS processes:
// one coordinator owns the trainer and checkpoints; workers own rollout
// compute and connect over TCP (DESIGN.md §8.8). The lane count — not the
// process count — is the determinism unit, so a run with any number of
// workers is bitwise identical to `advtrain -workers <lanes>` on one machine.
//
// Usage:
//
//	disttrain -coordinator -lanes 4 -workers 2 -iters 20 -json dist.json
//	disttrain -coordinator -addr :7070 -workers 0 &   # external workers
//	disttrain -worker -addr host:7070
//
// With -workers N > 0 the coordinator re-execs itself N times in -worker
// mode against its own listen address; -workers 0 waits for externally
// started workers instead. Workers may be killed and restarted at any time:
// lanes are reassigned to survivors and the result is unchanged. The
// coordinator itself resumes from -checkpoint-dir with -resume.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"os/exec"
	"time"

	"advnet/internal/dist"
	"advnet/internal/metrics"
	"advnet/internal/rl"
)

func main() {
	log.SetFlags(0)
	coordinator := flag.Bool("coordinator", false, "run the coordinator (trainer owner)")
	worker := flag.Bool("worker", false, "run a rollout worker against -addr")
	addr := flag.String("addr", "", "coordinator listen address / worker dial address (coordinator default 127.0.0.1:0)")
	workers := flag.Int("workers", 2, "worker processes the coordinator spawns (0 = external workers)")
	lanes := flag.Int("lanes", 4, "rollout lanes: the determinism unit, = advtrain -workers")
	iters := flag.Int("iters", 10, "training iterations")
	seed := flag.Uint64("seed", 5, "pensieve training seed")
	datasetSeed := flag.Uint64("dataset-seed", 21, "synthetic trace corpus seed")
	traces := flag.Int("traces", 16, "synthetic traces in the training corpus")
	rolloutSteps := flag.Int("rollout-steps", 0, "per-lane rollout steps (0 = domain default)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for crash-safe coordinator checkpoints (empty = disabled)")
	ckptEvery := flag.Int("checkpoint-every", 1, "checkpoint every N iterations")
	resume := flag.Bool("resume", false, "continue from the newest checkpoint in -checkpoint-dir")
	benchJSON := flag.String("json", "", "write the telemetry report here (unified schema, DESIGN.md §8.6)")
	flag.Parse()

	switch {
	case *worker && !*coordinator:
		if *addr == "" {
			log.Fatal("disttrain -worker requires -addr")
		}
		if err := dist.RunWorker(dist.WorkerConfig{Addr: *addr}); err != nil {
			log.Fatal(err)
		}
	case *coordinator && !*worker:
		runCoordinator(*addr, *workers, *lanes, *iters, *seed, *datasetSeed, *traces,
			*rolloutSteps, *ckptDir, *ckptEvery, *resume, *benchJSON)
	default:
		log.Fatal("disttrain: exactly one of -coordinator or -worker is required")
	}
}

func runCoordinator(addr string, workers, lanes, iters int, seed, datasetSeed uint64, traces,
	rolloutSteps int, ckptDir string, ckptEvery int, resume bool, benchJSON string) {
	spec, err := json.Marshal(dist.PensieveSpec{
		Seed: seed, DatasetSeed: datasetSeed, Traces: traces, RolloutSteps: rolloutSteps,
	})
	if err != nil {
		log.Fatal(err)
	}

	var reg *metrics.Registry
	if benchJSON != "" {
		reg = metrics.NewRegistry("dist")
		reg.SetConfig("seed", seed)
		reg.SetConfig("traces", traces)
		reg.SetConfig("workers", workers)
	}

	c, err := dist.NewCoordinator(dist.Config{
		Addr:       addr,
		Domain:     "pensieve",
		Spec:       spec,
		Lanes:      lanes,
		Iterations: iters,
		Checkpoint: rl.CheckpointConfig{Dir: ckptDir, Every: ckptEvery},
		Resume:     resume,
		Registry:   reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	log.Printf("coordinator listening on %s (%d lanes, %d iterations, starting at %d)",
		c.Addr(), lanes, iters, c.Iteration())

	var children []*exec.Cmd
	for i := 0; i < workers; i++ {
		cmd := exec.Command(os.Args[0], "-worker", "-addr", c.Addr())
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		children = append(children, cmd)
	}

	t0 := time.Now()
	stats, err := c.Run()
	if err != nil {
		for _, cmd := range children {
			cmd.Process.Kill()
		}
		log.Fatal(err)
	}
	for _, cmd := range children {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker process: %v", err)
		}
	}
	if len(stats) > 0 {
		log.Printf("episode reward: %.1f -> %.1f (%d iterations, %d workers, %v, %d reassignments)",
			stats[0].MeanEpReward, stats[len(stats)-1].MeanEpReward,
			len(stats), workers, time.Since(t0).Round(time.Millisecond), c.Reassignments())
	}
	if reg != nil {
		if len(stats) > 0 {
			reg.SetMetric("final_ep_reward", stats[len(stats)-1].MeanEpReward, metrics.Info("reward"))
			ser := reg.Series("ep_reward", 1, metrics.Info("reward"))
			for _, s := range stats {
				ser.Append(float64(s.Iteration), s.MeanEpReward)
			}
		}
		if err := reg.WriteJSON(benchJSON); err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry written to %s", benchJSON)
	}
}
