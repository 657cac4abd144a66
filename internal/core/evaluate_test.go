package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// TestEvaluateABRParallelGolden pins the evaluation layer's determinism
// contract: for W ∈ {1, 4} (plus a worker count that does not divide the
// trace count), both replay semantics must produce per-trace QoE slices
// identical to the sequential path, element for element and bit for bit.
// MPC exercises the cloned-protocol path with per-session state (its
// throughput-error window); BB the stateless one.
func TestEvaluateABRParallelGolden(t *testing.T) {
	v := testVideo()
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(31), trace.DefaultFCCLike(), 11, "fcc")
	evals := []struct {
		name string
		fn   func(p abr.Protocol, workers int) ([]float64, error)
	}{
		{"wall", func(p abr.Protocol, w int) ([]float64, error) { return EvaluateABR(v, ds, p, 0.08, w) }},
		{"chunk", func(p abr.Protocol, w int) ([]float64, error) { return EvaluateABRChunked(v, ds, p, 0.08, w) }},
	}
	for _, ev := range evals {
		for _, p := range []abr.Protocol{abr.NewBB(), abr.NewMPC()} {
			want, err := ev.fn(p, 1)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", ev.name, p.Name(), err)
			}
			for _, workers := range []int{3, 4} {
				got, err := ev.fn(p, workers)
				if err != nil {
					t.Fatalf("%s/%s W=%d: %v", ev.name, p.Name(), workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s W=%d: %d results, want %d", ev.name, p.Name(), workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s/%s W=%d: trace %d QoE %v, sequential %v", ev.name, p.Name(), workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEvaluateABREmptyDataset: the regression for the silent-empty-result
// bug — an empty or nil dataset must produce an explicit error instead of an
// empty slice that downstream summary statistics (mathx.Min/Max) panic on.
func TestEvaluateABREmptyDataset(t *testing.T) {
	v := testVideo()
	for _, ds := range []*trace.Dataset{nil, {Name: "empty"}} {
		if _, err := EvaluateABR(v, ds, abr.NewBB(), 0.08, 1); err == nil {
			t.Errorf("EvaluateABR(%v): no error for empty dataset", ds)
		}
		if _, err := EvaluateABRChunked(v, ds, abr.NewBB(), 0.08, 1); err == nil {
			t.Errorf("EvaluateABRChunked(%v): no error for empty dataset", ds)
		}
		if _, err := NewABRRegressionSuite(v, abr.NewBB(), ds, 0.08, 1); err == nil {
			t.Errorf("NewABRRegressionSuite(%v): no error for empty dataset", ds)
		}
	}
}

// TestBadDatasetsRefused: a dataset that loads must not panic or hang an
// evaluation. Each bad dataset is refused, either by trace.LoadJSON or by
// chunk replay before any session starts, with an error naming the trace and
// the point.
func TestBadDatasetsRefused(t *testing.T) {
	var fortyEight strings.Builder
	for i := 0; i < 48; i++ {
		bw := 2.0
		if i == 17 {
			bw = 0
		}
		fmt.Fprintf(&fortyEight, `{"duration": 1, "bandwidth": %v, "latency": 40, "loss": 0},`, bw)
	}
	for _, tc := range []struct {
		name, json string
		loads      bool // valid for wall-time replay, refused by chunk replay
	}{
		{"all-zero", `{"name": "d", "traces": [{"name": "dead", "points": [{"duration": 1, "bandwidth": 0, "latency": 40, "loss": 0}]}]}`, false},
		{"one-zero-point", `{"name": "d", "traces": [{"name": "holey", "points": [` + strings.TrimSuffix(fortyEight.String(), ",") + `]}]}`, true},
		{"overflow", `{"name": "d", "traces": [{"name": "huge", "points": [{"duration": 1e308, "bandwidth": 1, "latency": 40, "loss": 0}, {"duration": 1e308, "bandwidth": 0, "latency": 40, "loss": 0}]}]}`, false},
	} {
		path := filepath.Join(t.TempDir(), "d.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := trace.LoadJSON(path)
		if !tc.loads {
			if err == nil || !strings.Contains(err.Error(), "point") {
				t.Errorf("%s: LoadJSON error %v, want one naming the point", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v := testVideo()
		if _, err := EvaluateABRChunked(v, ds, abr.NewBB(), 0.08, 1); err == nil || !strings.Contains(err.Error(), `"holey": point 17`) {
			t.Errorf("%s: chunk replay error %v, want one naming trace holey and point 17", tc.name, err)
		}
		q, err := EvaluateABR(v, ds, abr.NewBB(), 0.08, 1)
		if err != nil || math.IsNaN(q[0]) || math.IsInf(q[0], 0) {
			t.Errorf("%s: wall replay QoE %v, err %v", tc.name, q, err)
		}
	}
}

// TestEvaluateABRUncloneableProtocol: workers > 1 needs abr.CloneProtocol;
// a protocol outside that registry must fail loudly in parallel mode and
// keep working single-threaded.
func TestEvaluateABRUncloneableProtocol(t *testing.T) {
	v := testVideo()
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(32), trace.DefaultFCCLike(), 4, "fcc")
	if _, err := EvaluateABRChunked(v, ds, alwaysTop{}, 0.08, 2); err == nil {
		t.Error("no error for uncloneable protocol at workers=2")
	}
	if _, err := EvaluateABRChunked(v, ds, alwaysTop{}, 0.08, 1); err != nil {
		t.Errorf("uncloneable protocol rejected at workers=1: %v", err)
	}
}

// TestABRRegressionSuiteParallelIdentity: baselines and checks recorded with
// different worker counts must be interchangeable — the suite's measurements
// do not depend on the degree of parallelism.
func TestABRRegressionSuiteParallelIdentity(t *testing.T) {
	v := testVideo()
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(33), trace.DefaultFCCLike(), 6, "fcc")
	seq, err := NewABRRegressionSuite(v, abr.NewMPC(), ds, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewABRRegressionSuite(v, abr.NewMPC(), ds, 0.08, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.BaselineMeanQoE != par.BaselineMeanQoE || seq.BaselineP5QoE != par.BaselineP5QoE {
		t.Fatalf("parallel baseline diverged: %+v vs %+v", par, seq)
	}
	rs, err := seq.Check(v, abr.NewMPC(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := seq.Check(v, abr.NewMPC(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rs != rp {
		t.Fatalf("parallel check diverged: %+v vs %+v", rp, rs)
	}
}
