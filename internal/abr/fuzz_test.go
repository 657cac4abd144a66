package abr

import (
	"math"
	"os"
	"path/filepath"
	"testing"

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
