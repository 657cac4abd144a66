package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"advnet/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden BENCH_<area>.json fixtures")

// readReport parses a document WriteJSON persisted.
func readReport(t *testing.T, path string) *Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &rep
}

// buildAreaRegistry synthesizes a registry shaped exactly like each
// producer's real emission, with fixed values, so the golden files pin the
// unified schema for all four areas.
func buildAreaRegistry(area string) *Registry {
	reg := NewRegistry(area)
	switch area {
	case "serve":
		reg.SetConfig("workers", 4)
		reg.SetConfig("max_batch", 32)
		reg.SetConfig("storm", 64)
		reg.SetMetric("throughput_rps", 1.5e6, HigherIsBetter("req/s"))
		reg.SetMetric("speedup", 3.6, HigherIsBetter("x"))
		reg.SetMetric("served", 200000, Info("requests"))
		reg.SetMetric("avg_batch", 17.2, Info("requests/flush"))
		reg.SetMetric("wall_seconds", 0.133, Info("s"))
		reg.SetDistribution("latency_us", stats.Summary{
			Count: 25000, Mean: 85.5, Min: 12, P50: 74, P95: 180, P99: 260, Max: 900,
		}, LowerIsBetter("us"))
	case "swarm":
		reg.SetConfig("clients", 100000)
		reg.SetConfig("groups", 1024)
		reg.SetConfig("backend", "fluid")
		reg.SetMetric("events_per_sec", 3.2e6, HigherIsBetter("events/s"))
		reg.SetMetric("speedup_over_realtime", 260.0, HigherIsBetter("x"))
		reg.SetMetric("events", 9.6e6, Info("events"))
		reg.SetMetric("completed_clients", 100000, Info("clients"))
		reg.SetMetric("jain", 0.9991, Info(""))
		reg.SetDistribution("qoe_per_client", stats.Summary{
			Count: 100000, Mean: 1.21, Min: -3.2, P50: 1.4, P95: 2.4, P99: 2.9, Max: 3.4,
		}, Info("qoe"))
		reg.SetDistribution("rebuffer_s_per_client", stats.Summary{
			Count: 100000, Mean: 0.8, Min: 0, P50: 0.2, P95: 3.1, P99: 7.7, Max: 21,
		}, Info("s"))
	case "train":
		reg.SetConfig("domain", "abr")
		reg.SetConfig("target", "bb")
		reg.SetConfig("iters", 6)
		iters := reg.Counter("train_iterations", Info("iterations"))
		for i := 0; i < 6; i++ {
			iters.Inc()
		}
		reg.SetMetric("iters_per_sec", 2.4, HigherIsBetter("iters/s"))
		reg.SetMetric("wall_seconds", 2.5, Info("s"))
		rollout := reg.Timer("rollout_s", LowerIsBetter("s"))
		update := reg.Timer("update_s", LowerIsBetter("s"))
		for i := 0; i < 6; i++ {
			rollout.ObserveSeconds(0.30 + float64(i)*0.001)
			update.ObserveSeconds(0.10 + float64(i)*0.001)
		}
		ser := reg.Series("ep_reward", 1, Info("reward"))
		for i := 0; i < 6; i++ {
			ser.Append(float64(i), -40+float64(i)*5)
		}
	case "eval":
		reg.SetConfig("protocols", "bb,rate")
		reg.SetConfig("traces", 24)
		reg.SetMetric("traces_per_sec_bb", 480, HigherIsBetter("traces/s"))
		reg.SetMetric("traces_per_sec_rate", 520, HigherIsBetter("traces/s"))
		reg.SetMetric("wall_seconds", 0.1, Info("s"))
		reg.SetDistribution("qoe_bb", stats.Summary{
			Count: 24, Mean: 1.9, Min: 0.3, P50: 2.0, P95: 2.8, P99: 2.9, Max: 3.0,
		}, Info("qoe"))
		reg.SetDistribution("qoe_rate", stats.Summary{
			Count: 24, Mean: 1.7, Min: 0.1, P50: 1.8, P95: 2.6, P99: 2.7, Max: 2.8,
		}, Info("qoe"))
	default:
		panic("unknown area " + area)
	}
	return reg
}

// TestGoldenSchemaRoundTrip pins the unified report schema for four
// producer-shaped areas: the serialized bytes must match the committed
// golden fixture (schema stability), and reading the document back must
// reproduce the report exactly (round-trip fidelity).
func TestGoldenSchemaRoundTrip(t *testing.T) {
	for _, area := range []string{"serve", "swarm", "train", "eval"} {
		t.Run(area, func(t *testing.T) {
			reg := buildAreaRegistry(area)
			data, err := reg.Snapshot().MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "BENCH_"+area+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("schema drift for area %s:\n--- got ---\n%s\n--- want ---\n%s", area, data, want)
			}

			// Round trip: write, read, compare semantically.
			dir := t.TempDir()
			path := filepath.Join(dir, "BENCH_"+area+".json")
			if err := reg.WriteJSON(path); err != nil {
				t.Fatal(err)
			}
			got := readReport(t, path)
			snap := reg.Snapshot()
			// Config round-trips through JSON's generic types; compare
			// both sides re-marshaled.
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(snap)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("round trip drift:\n got %s\nwant %s", gotJSON, wantJSON)
			}
			if got.SchemaVersion != SchemaVersion || got.Area != area {
				t.Fatalf("header %d/%q", got.SchemaVersion, got.Area)
			}
		})
	}
}

func TestRegistryCountersReportAsScalars(t *testing.T) {
	reg := NewRegistry("x")
	c := reg.Counter("events", HigherIsBetter("n"))
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	rep := reg.Snapshot()
	if got := rep.Metrics["events"]; got.Value != 7 || got.Direction != Higher {
		t.Fatalf("counter scalar %+v", got)
	}
	// Same-name re-registration returns the same instrument.
	if reg.Counter("events", Info("n")).Value() != 7 {
		t.Fatal("re-registration lost counter state")
	}
}

func TestTimerSeededByName(t *testing.T) {
	a := NewRegistry("x").Timer("t", Info("s"))
	b := NewRegistry("y").Timer("t", Info("s"))
	for i := 0; i < 10000; i++ {
		v := float64(i)
		a.ObserveSeconds(v)
		b.ObserveSeconds(v)
	}
	if !reflect.DeepEqual(a.Summary(), b.Summary()) {
		t.Fatal("same-named timers with identical streams diverged (seed not name-derived)")
	}
}

func TestWriteJSONAtomicCreatesFile(t *testing.T) {
	reg := buildAreaRegistry("eval")
	path := filepath.Join(t.TempDir(), "BENCH_eval.json")
	if err := reg.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if rep := readReport(t, path); rep.Area != "eval" {
		t.Fatalf("area %q", rep.Area)
	}
}
