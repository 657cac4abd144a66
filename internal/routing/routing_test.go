package routing

import (
	"math"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
)

// diamond returns the 4-node diamond: 0 -> {1,2} -> 3, all capacity 1.
func diamond() *Topology {
	t, err := NewTopology(4, []Edge{
		{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1},
		{1, 0, 1}, {2, 0, 1}, {3, 1, 1}, {3, 2, 1},
	})
	if err != nil {
		panic(err)
	}
	return t
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewTopology(2, []Edge{{0, 0, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewTopology(2, []Edge{{0, 1, 0}}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestBFSDistances(t *testing.T) {
	top := diamond()
	dist := bfsDistances(top, 3)
	want := []int{2, 1, 1, 0}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestSPFSinglePath(t *testing.T) {
	top := diamond()
	d := DemandMatrix{{Src: 0, Dst: 3, Rate: 1}}
	r := SPF{}.Route(top, d)
	loads := r.EdgeLoads(len(top.Edges))
	// All traffic on exactly one of the two 2-hop paths.
	used := 0
	for _, l := range loads {
		if l > 0 {
			used++
			if math.Abs(l-1) > 1e-9 {
				t.Fatalf("partial flow %v under SPF", l)
			}
		}
	}
	if used != 2 {
		t.Fatalf("SPF used %d edges, want 2", used)
	}
	if got := MLU(top, r); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SPF MLU %v, want 1", got)
	}
}

func TestECMPSplitsEvenly(t *testing.T) {
	top := diamond()
	d := DemandMatrix{{Src: 0, Dst: 3, Rate: 1}}
	r := ECMP{}.Route(top, d)
	if got := MLU(top, r); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ECMP MLU %v, want 0.5 (even split)", got)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	// For every scheme: flow out of the source equals the demand rate
	// (when the destination is reachable), and MLU is non-negative.
	top := Abilene()
	oracle := NewOracle()
	schemes := []Scheme{SPF{}, ECMP{}, oracle}
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		var d DemandMatrix
		for i := 0; i < 5; i++ {
			s := rng.Intn(top.N)
			dst := rng.Intn(top.N)
			if s == dst {
				continue
			}
			d = append(d, Demand{Src: s, Dst: dst, Rate: rng.Uniform(0.1, 1)})
		}
		if len(d) == 0 {
			return true
		}
		for _, sch := range schemes {
			r := sch.Route(top, d)
			for k, dem := range d {
				var out, in float64
				for ei, v := range r.Flows[k] {
					if v < -1e-12 {
						return false
					}
					if top.Edges[ei].From == dem.Src {
						out += v
					}
					if top.Edges[ei].To == dem.Src {
						in += v
					}
				}
				if math.Abs((out-in)-dem.Rate) > 1e-6 {
					return false
				}
				// Delivered: net inflow at destination equals rate.
				var dIn, dOut float64
				for ei, v := range r.Flows[k] {
					if top.Edges[ei].To == dem.Dst {
						dIn += v
					}
					if top.Edges[ei].From == dem.Dst {
						dOut += v
					}
				}
				if math.Abs((dIn-dOut)-dem.Rate) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleNeverWorseThanECMP(t *testing.T) {
	top := Abilene()
	oracle := NewOracle()
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		var d DemandMatrix
		for i := 0; i < 8; i++ {
			s := rng.Intn(top.N)
			dst := rng.Intn(top.N)
			if s == dst {
				continue
			}
			d = append(d, Demand{Src: s, Dst: dst, Rate: rng.Uniform(0.1, 0.8)})
		}
		if len(d) == 0 {
			return true
		}
		ecmp := MLU(top, ECMP{}.Route(top, d))
		opt := MLU(top, oracle.Route(top, d))
		return opt <= ecmp+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleBeatsSPFOnDiamond(t *testing.T) {
	top := diamond()
	d := DemandMatrix{{Src: 0, Dst: 3, Rate: 1}}
	spf := MLU(top, SPF{}.Route(top, d))
	opt := MLU(top, NewOracle().Route(top, d))
	if opt >= spf {
		t.Fatalf("oracle MLU %v should beat SPF %v", opt, spf)
	}
	if math.Abs(opt-0.5) > 0.05 {
		t.Fatalf("oracle MLU %v, want ~0.5", opt)
	}
}

func TestAbileneConnected(t *testing.T) {
	top := Abilene()
	for dst := 0; dst < top.N; dst++ {
		dist := bfsDistances(top, dst)
		for v, dv := range dist {
			if dv >= math.MaxInt32 {
				t.Fatalf("node %d cannot reach %d", v, dst)
			}
		}
	}
}
