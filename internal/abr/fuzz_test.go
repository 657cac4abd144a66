package abr

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// FuzzLoadJSON: whatever bytes a dataset file holds, trace.LoadJSON either
// refuses them or returns traces over which a wall-time chunk download
// finishes with a finite time, without a panic.
func FuzzLoadJSON(f *testing.F) {
	f.Add(`{"name":"d","traces":[{"name":"t","points":[{"duration":2,"bandwidth":1,"latency":10,"loss":0},{"duration":3,"bandwidth":0,"latency":20,"loss":0.1}]}]}`)
	f.Add(`{"name":"d","traces":[{"name":"dead","points":[{"duration":1,"bandwidth":0}]}]}`)
	f.Add(`{"name":"d","traces":[{"name":"huge","points":[{"duration":1e308,"bandwidth":1},{"duration":1e308,"bandwidth":0}]}]}`)
	f.Add(`{"traces":[]}`)
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		path := filepath.Join(t.TempDir(), "d.json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := trace.LoadJSON(path)
		if err != nil {
			return
		}
		for _, tr := range ds.Traces {
			d := (&TraceLink{Trace: tr, RTTSeconds: 0.08}).Download(1e6, 0)
			if !(d >= 0.08) || math.IsInf(d, 0) {
				t.Fatalf("trace %q: chunk download took %v s", tr.Name, d)
			}
		}
	})
}

// FuzzLaneRestore: a lane over lane 1 of a 3-lane TrainEnv run refuses,
// with an error and never a panic, every state that does not fit it — more
// actions than the episode takes, a NaN or Inf action, a seed that does not
// decode or whose lane, lane count or cursor disagrees with the env (NaN or
// Inf in the cursor cannot decode) — and after a refused Restore a valid
// one resumes exactly as if the refused one had never been tried. The
// inputs are the seed JSON, the actions as little-endian float64 bits, and
// whether an episode is pending. (A TrainEnv's action rows are one value
// wide; rl's TestLaneRestoreRejects covers a row of the wrong width.)
func FuzzLaneRestore(f *testing.F) {
	video := testVideo(0)
	ds := trace.GenerateFCCLikeDataset(mathx.NewRNG(5), trace.DefaultFCCLike(), 7, "fcc")
	pr := PensieveProblem(video, ds, 0.08)
	newLane := func() *rl.Lane {
		l, err := pr.Lane(1, 3)
		if err != nil {
			f.Fatal(err)
		}
		return l
	}
	// The valid state: five steps into the lane's second episode.
	ref := newLane()
	cut, err := ref.Collect(1, video.NumChunks()+5)
	if err != nil {
		f.Fatal(err)
	}
	good := cut.End
	want, err := ref.Collect(1, 20)
	if err != nil {
		f.Fatal(err)
	}
	wantObs, wantRewards := mathx.CopyOf(want.Obs), mathx.CopyOf(want.Rewards)

	bits := func(acts ...float64) []byte {
		b := make([]byte, 8*len(acts))
		for i, a := range acts {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(a))
		}
		return b
	}
	seed := string(good.Seed)
	f.Add(seed, bits(good.Actions...), true)
	for name, c := range map[string]struct {
		seed string
		acts []float64
		live bool
	}{
		"more actions than the episode": {seed, make([]float64, video.NumChunks()), true},
		"NaN action":                    {seed, []float64{1, math.NaN(), 2}, true},
		"Inf action":                    {seed, []float64{math.Inf(1)}, true},
		"actions, no episode":           {seed, []float64{3}, false},
		"other lane":                    {strings.Replace(seed, `"index":1`, `"index":2`, 1), good.Actions, true},
		"other lane count":              {strings.Replace(seed, `"count":3`, `"count":2`, 1), good.Actions, true},
		"cursor over other traces":      {strings.Replace(seed, `"n":2`, `"n":1000000000000`, 1), good.Actions, true},
		"Inf cursor position":           {strings.Replace(seed, `"pos":`, `"pos":1e999,"x":`, 1), good.Actions, true},
		"negative cursor epoch":         {strings.Replace(seed, `"epoch":`, `"epoch":-1,"x":`, 1), good.Actions, true},
		"no seed":                       {"", good.Actions, true},
		"garbage seed":                  {"{", nil, false},
	} {
		if err := newLane().Restore(rl.LaneState{RNG: good.RNG, Episode: rl.Episode{Live: c.live, Actions: c.acts, Seed: json.RawMessage(c.seed)}}); err == nil {
			f.Errorf("%s: Restore accepted the state", name)
		}
		f.Add(c.seed, bits(c.acts...), c.live)
	}

	f.Fuzz(func(t *testing.T, seed string, rawActs []byte, live bool) {
		acts := make([]float64, len(rawActs)/8)
		for i := range acts {
			acts[i] = math.Float64frombits(binary.LittleEndian.Uint64(rawActs[8*i:]))
		}
		l := newLane()
		l.Restore(rl.LaneState{RNG: good.RNG, Episode: rl.Episode{Live: live, Actions: acts, Seed: json.RawMessage(seed)}})
		if err := l.Restore(good); err != nil {
			t.Fatalf("valid Restore after another: %v", err)
		}
		got, err := l.Collect(1, 20)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantObs {
			if math.Float64bits(got.Obs[i]) != math.Float64bits(wantObs[i]) {
				t.Fatalf("obs[%d] = %v after a refused Restore, want %v", i, got.Obs[i], wantObs[i])
			}
		}
		for i := range wantRewards {
			if math.Float64bits(got.Rewards[i]) != math.Float64bits(wantRewards[i]) {
				t.Fatalf("reward %d = %v after a refused Restore, want %v", i, got.Rewards[i], wantRewards[i])
			}
		}
	})
}
