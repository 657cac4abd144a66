package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

const aaPairs = 3 // -aa runs every workload in this many back-to-back pairs

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// selfCheck measures identical code against itself: every workload is run
// in aaPairs back-to-back pairs, each run a fresh process with its own seed
// (as the driver runs it); the first runs of the pairs form set A, the
// second runs set B. For each end-to-end metric it prints both medians, the
// quartile spread over all runs and whether the sets agree within the bound
// BENCHMARK.json gives the metric. It fails if any pair of sets disagrees.
func selfCheck(spec string, seed uint64, seconds float64) error {
	c, err := readContract(spec)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	disagree := 0
	fmt.Printf("%-14s %-18s %13s %13s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "spread", "bound", "agree")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for pair := 0; pair < aaPairs; pair++ {
			for side := range sets {
				line, err := runChild(self, w.name, seed+uint64(2*pair+side), seconds)
				if err != nil {
					return err
				}
				if !line.Correct || line.Failed > 0 {
					return fmt.Errorf("%s: run reported incorrect outputs or %d failed ops", w.name, line.Failed)
				}
				for name, m := range line.Metrics {
					sets[side][name] = append(sets[side][name], m.Value)
				}
			}
		}
		for _, m := range c.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			all := append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)
			ok := math.Abs(b-a) <= m.Bound*a
			if !ok {
				disagree++
			}
			fmt.Printf("%-14s %-18s %13.6g %13.6g %7.2f%% %6.0f%%  %v\n", w.name, m.Name, a, b, 100*quartileSpread(all), 100*m.Bound, ok)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric/workload pairs disagree beyond their bound", disagree)
	}
	return nil
}

// runChild runs one untraced run in a fresh process and parses the result
// line it prints last.
func runChild(self, workload string, seed uint64, seconds float64) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return line, nil
}
