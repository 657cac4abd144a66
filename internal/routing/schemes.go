package routing

// SPF is single-shortest-path routing by hop count: every commodity follows
// one deterministic shortest path (ties broken by lowest edge index). It is
// the classic OSPF-with-unit-weights baseline and concentrates load badly —
// fertile ground for adversarial demand matrices.
type SPF struct{}

// Name implements Scheme.
func (SPF) Name() string { return "spf" }

// Route implements Scheme.
func (SPF) Route(t *Topology, d DemandMatrix) *Routing {
	r := &Routing{Flows: make([][]float64, len(d))}
	distCache := map[int][]int{}
	for k, dem := range d {
		r.Flows[k] = make([]float64, len(t.Edges))
		if dem.Rate == 0 {
			continue
		}
		dist, ok := distCache[dem.Dst]
		if !ok {
			dist = bfsDistances(t, dem.Dst)
			distCache[dem.Dst] = dist
		}
		// Walk from src toward dst, always taking the first edge that
		// decreases the distance.
		v := dem.Src
		for v != dem.Dst {
			next := -1
			var via int
			for _, ei := range t.OutEdges(v) {
				e := t.Edges[ei]
				if dist[e.To] == dist[v]-1 {
					next = ei
					via = e.To
					break
				}
			}
			if next < 0 {
				break // unreachable; drop the demand
			}
			r.Flows[k][next] += dem.Rate
			v = via
		}
	}
	return r
}

// ECMP is equal-cost multipath routing: at every node, a commodity's traffic
// splits evenly over all outgoing edges that lie on some shortest path to
// the destination — the standard datacenter/WAN default.
type ECMP struct{}

// Name implements Scheme.
func (ECMP) Name() string { return "ecmp" }

// Route implements Scheme.
func (ECMP) Route(t *Topology, d DemandMatrix) *Routing {
	r := &Routing{Flows: make([][]float64, len(d))}
	distCache := map[int][]int{}
	for k, dem := range d {
		r.Flows[k] = splitByWeights(t, dem, func(v int) ([]int, []float64) {
			dist, ok := distCache[dem.Dst]
			if !ok {
				dist = bfsDistances(t, dem.Dst)
				distCache[dem.Dst] = dist
			}
			var nexts []int
			for _, ei := range t.OutEdges(v) {
				if dist[t.Edges[ei].To] == dist[v]-1 {
					nexts = append(nexts, ei)
				}
			}
			w := make([]float64, len(nexts))
			for i := range w {
				w[i] = 1
			}
			return nexts, w
		})
	}
	return r
}

// splitByWeights pushes a commodity's rate from src to dst, splitting at
// every node according to next(v) = (candidate edges, weights). The
// candidate sets must be progress-making (loop-free); rate at unreachable
// nodes is dropped.
func splitByWeights(t *Topology, dem Demand, next func(v int) ([]int, []float64)) []float64 {
	flow := make([]float64, len(t.Edges))
	if dem.Rate == 0 {
		return flow
	}
	// Node inflow propagation in topological order of decreasing distance:
	// process nodes repeatedly until no pending inflow remains. Because
	// candidate edges strictly decrease distance-to-dst, each unit of flow
	// visits a node at most once.
	inflow := make([]float64, t.N)
	inflow[dem.Src] = dem.Rate
	pending := []int{dem.Src}
	for len(pending) > 0 {
		v := pending[0]
		pending = pending[1:]
		amt := inflow[v]
		if amt == 0 || v == dem.Dst {
			continue
		}
		inflow[v] = 0
		nexts, ws := next(v)
		var total float64
		for _, w := range ws {
			total += w
		}
		if len(nexts) == 0 || total <= 0 {
			continue // dead end: drop
		}
		for i, ei := range nexts {
			share := amt * ws[i] / total
			flow[ei] += share
			to := t.Edges[ei].To
			if inflow[to] == 0 && to != dem.Dst {
				pending = append(pending, to)
			}
			inflow[to] += share
		}
	}
	return flow
}
