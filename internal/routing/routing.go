// Package routing is the third application domain the paper motivates
// (§1 lists "intradomain and interdomain routing protocols" among the
// protocols needing robustness testing; §2.3 cites RL-driven routing [26];
// §5 proposes adversaries that cause route flapping). It provides a
// multi-commodity flow substrate: capacitated directed topologies, demand
// matrices, routing schemes (shortest-path and ECMP), an iterative oracle that
// approximates congestion-optimal routing, and the max-link-utilization
// (MLU) metric the adversarial framework scores schemes against.
package routing

import (
	"fmt"
	"math"
)

// Edge is a directed capacitated link.
type Edge struct {
	From, To int
	Capacity float64 // arbitrary rate units
}

// Topology is a directed graph over nodes 0..N-1.
type Topology struct {
	N     int
	Edges []Edge

	// adjacency: out[i] lists indices into Edges.
	out [][]int
}

// NewTopology builds a topology and its adjacency index.
func NewTopology(n int, edges []Edge) (*Topology, error) {
	t := &Topology{N: n, Edges: edges, out: make([][]int, n)}
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("routing: edge %d endpoints out of range", i)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("routing: edge %d is a self-loop", i)
		}
		if e.Capacity <= 0 {
			return nil, fmt.Errorf("routing: edge %d capacity %v", i, e.Capacity)
		}
		t.out[e.From] = append(t.out[e.From], i)
	}
	return t, nil
}

// OutEdges returns the indices of edges leaving node v.
func (t *Topology) OutEdges(v int) []int { return t.out[v] }

// Abilene returns a small version of the classic 11-node Abilene research
// backbone used throughout the traffic-engineering literature (and in the
// evaluation of [26]), with symmetric unit-capacity links.
func Abilene() *Topology {
	pairs := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		{5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10},
		{0, 2}, {1, 3}, {3, 6}, {4, 7}, {5, 8}, {2, 9},
	}
	var edges []Edge
	for _, p := range pairs {
		edges = append(edges, Edge{From: p[0], To: p[1], Capacity: 1})
		edges = append(edges, Edge{From: p[1], To: p[0], Capacity: 1})
	}
	t, err := NewTopology(11, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// Demand is one commodity: rate units from Src to Dst.
type Demand struct {
	Src, Dst int
	Rate     float64
}

// DemandMatrix is a set of commodities.
type DemandMatrix []Demand

// Routing is a per-commodity split of traffic over edges: flows[k][e] is the
// rate of commodity k on edge e. Schemes produce these; the evaluator only
// needs the aggregate loads.
type Routing struct {
	Flows [][]float64 // [commodity][edge]
}

// EdgeLoads sums the per-commodity flows into per-edge load.
func (r *Routing) EdgeLoads(numEdges int) []float64 {
	loads := make([]float64, numEdges)
	for _, f := range r.Flows {
		for e, v := range f {
			loads[e] += v
		}
	}
	return loads
}

// MLU returns the maximum link utilization of a routing on a topology — the
// congestion metric traffic engineering minimizes and the adversary's
// r_protocol in this domain.
func MLU(t *Topology, r *Routing) float64 {
	loads := r.EdgeLoads(len(t.Edges))
	var m float64
	for e, l := range loads {
		u := l / t.Edges[e].Capacity
		if u > m {
			m = u
		}
	}
	return m
}

// Scheme is a routing protocol: given a topology and demands it decides how
// traffic flows.
type Scheme interface {
	Name() string
	Route(t *Topology, d DemandMatrix) *Routing
}

// bfsDistances returns hop distances from every node to dst.
func bfsDistances(t *Topology, dst int) []int {
	const inf = math.MaxInt32
	dist := make([]int, t.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[dst] = 0
	queue := []int{dst}
	// BFS on the reverse graph: we need distance-to-dst.
	// Build reverse adjacency lazily.
	rev := make([][]int, t.N)
	for _, e := range t.Edges {
		rev[e.To] = append(rev[e.To], e.From)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range rev[v] {
			if dist[u] == inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
