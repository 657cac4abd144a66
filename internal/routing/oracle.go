package routing

import (
	"math"
)

// Oracle approximates congestion-optimal routing — the r_opt of Eq. 1 in the
// routing domain. It runs projected gradient descent on per-commodity
// shortest-path *sets*: traffic iteratively shifts from the most-loaded path
// option to the least-loaded one, converging toward the multi-commodity
// splittable-flow optimum over the progress-making DAG. It is a heuristic
// lower-bound oracle (the exact optimum needs an LP), which is sufficient
// for the adversary's reward: any slack only makes the adversary's job
// harder, never easier.
type Oracle struct {
	Iterations int     // descent sweeps, default 60
	Step       float64 // fraction of flow moved per sweep, default 0.3
}

// NewOracle returns an oracle with default settings.
func NewOracle() *Oracle { return &Oracle{Iterations: 60, Step: 0.3} }

// Route implements Scheme: it starts from ECMP and rebalances.
func (o *Oracle) Route(t *Topology, d DemandMatrix) *Routing {
	iterations := o.Iterations
	if iterations <= 0 {
		iterations = 60
	}
	step := o.Step
	if step <= 0 {
		step = 0.3
	}

	// Candidate structure: per commodity, per node, the progress-making
	// out-edges (toward dst by hop count).
	dists := map[int][]int{}
	distFor := func(dst int) []int {
		if d, ok := dists[dst]; ok {
			return d
		}
		d := bfsDistances(t, dst)
		dists[dst] = d
		return d
	}

	// Per-commodity per-node split weights over candidate edges, init
	// uniform (= ECMP).
	type nodeSplit struct {
		edges   []int
		weights []float64
	}
	splits := make([]map[int]*nodeSplit, len(d))
	for k, dem := range d {
		splits[k] = map[int]*nodeSplit{}
		dist := distFor(dem.Dst)
		for v := 0; v < t.N; v++ {
			if v == dem.Dst {
				continue
			}
			var cand []int
			for _, ei := range t.OutEdges(v) {
				if dist[t.Edges[ei].To] == dist[v]-1 {
					cand = append(cand, ei)
				}
			}
			if len(cand) > 0 {
				w := make([]float64, len(cand))
				for i := range w {
					w[i] = 1
				}
				splits[k][v] = &nodeSplit{edges: cand, weights: w}
			}
		}
	}

	route := func() *Routing {
		r := &Routing{Flows: make([][]float64, len(d))}
		for k, dem := range d {
			r.Flows[k] = splitByWeights(t, dem, func(v int) ([]int, []float64) {
				s, ok := splits[k][v]
				if !ok {
					return nil, nil
				}
				return s.edges, s.weights
			})
		}
		return r
	}

	best := route()
	bestMLU := MLU(t, best)
	for it := 0; it < iterations; it++ {
		r := route()
		if m := MLU(t, r); m < bestMLU {
			bestMLU = m
			best = r
		}
		loads := r.EdgeLoads(len(t.Edges))
		improved := false
		for k := range d {
			for _, s := range splits[k] {
				if len(s.edges) < 2 {
					continue
				}
				// Shift weight from the candidate with the highest
				// downstream utilization to the lowest.
				hi, lo := 0, 0
				var hiU, loU float64 = -1, math.Inf(1)
				for i, ei := range s.edges {
					u := loads[ei] / t.Edges[ei].Capacity
					if u > hiU {
						hiU = u
						hi = i
					}
					if u < loU {
						loU = u
						lo = i
					}
				}
				if hi == lo || hiU-loU < 1e-9 {
					continue
				}
				delta := step * s.weights[hi]
				s.weights[hi] -= delta
				s.weights[lo] += delta
				improved = true
			}
		}
		if !improved {
			break
		}
		// Decay the step so late sweeps fine-tune instead of oscillating.
		step *= 0.97
	}
	if final := route(); MLU(t, final) < bestMLU {
		best = final
	}
	return best
}

// Name implements Scheme.
func (o *Oracle) Name() string { return "oracle" }
