package nn

import (
	"fmt"
	"math"

	"advnet/internal/mathx"
)

// The one dense kernel. Every pass in the repository that must reproduce —
// rollouts, PPO updates, evaluation, the dist lanes — runs these loops, for
// one row (Cache) or a minibatch (BatchCache). They are register-tiled so the
// CPU has independent multiply-add chains to overlap, but every individual
// output keeps one fixed operation sequence whatever the tile it lands in:
//
//	y[r][o]     = B[o] + ((+0 + W[o][0]·x[r][0]) + W[o][1]·x[r][1] + …)   k ascending
//	gradB[o]    = ((gradB[o] + g[0][o]) + g[1][o]) + …                    r ascending
//	gradW[o][i] = ((gradW[o][i] + g[0][o]·x[0][i]) + g[1][o]·x[1][i]) + … r ascending
//	dX[r][i]    = ((+0 + g[r][0]·W[0][i]) + g[r][1]·W[1][i]) + …          o ascending
//
// so a result does not depend on the batch size, the row's position in the
// batch, or which remainder loop handled it: a batched pass is bit-for-bit
// the same samples passed one at a time (TestBatchMatchesPerSampleBitwise
// checks it against the scalar loops this kernel replaced).
//
// On AVX2 hardware (useAsm) every loop but gradB's runs as assembly
// (kernel_amd64.s) over the MLP's transposed weights, built once per weight
// version (transposes): the forward of four-row groups (denseRows4Asm) and of
// single rows (denseRow1Asm: ForwardInto and the groups' remainder), the
// whole minibatch's gradW in one call per layer (gradRowsAsm), and each
// row's dX — the one-row tile again, with W itself in the transposes' role.
// Each SIMD lane computes one output with the sequence above — a rounded
// multiply, then a rounded add, never a fused multiply-add — so the assembly
// is the same bits as these Go loops by construction (TestKernelNeverFuses
// pins the "never fused"). The Go loops are the path on every other
// architecture and the oracle the assembly is tested against. The tanh
// activation runs four lanes at a time on AVX2 hardware at every n
// (tanh_amd64.s), each lane mathx.Tanh's own sequence — fused only where
// mathx.Exp calls math.FMA — so it too is the same bits as the Go loop, as
// is Adam.Step's four-lane update (adamAsm).

// forwardRows writes y = x·Wᵀ + b for the n rows of x (n×In, row-major) into
// y (n×Out). Tiles are 2 rows × 4 outputs: eight accumulators, each summed
// k-ascending from +0 with the bias added last.
func (d *Dense) forwardRows(x, y []float64, n int) {
	in, out := d.In, d.Out
	r := 0
	for ; r+2 <= n; r += 2 {
		x0 := x[r*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in][:len(x0)]
		y0 := y[r*out : (r+1)*out]
		y1 := y[(r+1)*out : (r+2)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := d.W[o*in : (o+1)*in][:len(x0)]
			w1 := d.W[(o+1)*in : (o+2)*in][:len(x0)]
			w2 := d.W[(o+2)*in : (o+3)*in][:len(x0)]
			w3 := d.W[(o+3)*in : (o+4)*in][:len(x0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, a0 := range x0 {
				a1 := x1[k]
				w := w0[k]
				s00 += w * a0
				s10 += w * a1
				w = w1[k]
				s01 += w * a0
				s11 += w * a1
				w = w2[k]
				s02 += w * a0
				s12 += w * a1
				w = w3[k]
				s03 += w * a0
				s13 += w * a1
			}
			b := d.B[o : o+4 : o+4]
			y0[o], y0[o+1], y0[o+2], y0[o+3] = b[0]+s00, b[1]+s01, b[2]+s02, b[3]+s03
			y1[o], y1[o+1], y1[o+2], y1[o+3] = b[0]+s10, b[1]+s11, b[2]+s12, b[3]+s13
		}
		for ; o < out; o++ {
			w0 := d.W[o*in : (o+1)*in][:len(x0)]
			var s0, s1 float64
			for k, a0 := range x0 {
				s0 += w0[k] * a0
				s1 += w0[k] * x1[k]
			}
			y0[o], y1[o] = d.B[o]+s0, d.B[o]+s1
		}
	}
	if r < n {
		x0 := x[r*in : (r+1)*in]
		y0 := y[r*out : (r+1)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := d.W[o*in : (o+1)*in][:len(x0)]
			w1 := d.W[(o+1)*in : (o+2)*in][:len(x0)]
			w2 := d.W[(o+2)*in : (o+3)*in][:len(x0)]
			w3 := d.W[(o+3)*in : (o+4)*in][:len(x0)]
			var s0, s1, s2, s3 float64
			for k, a := range x0 {
				s0 += w0[k] * a
				s1 += w1[k] * a
				s2 += w2[k] * a
				s3 += w3[k] * a
			}
			b := d.B[o : o+4 : o+4]
			y0[o], y0[o+1], y0[o+2], y0[o+3] = b[0]+s0, b[1]+s1, b[2]+s2, b[3]+s3
		}
		for ; o < out; o++ {
			w0 := d.W[o*in : (o+1)*in][:len(x0)]
			var s float64
			for k, a := range x0 {
				s += w0[k] * a
			}
			y0[o] = d.B[o] + s
		}
	}
}

// axpy computes y[i] += a·v[i].
func axpy(y []float64, a float64, v []float64) {
	v = v[:len(y)]
	for i := range y {
		y[i] += a * v[i]
	}
}

// axpy4 is four axpy sweeps over y fused into one: every y[i] still receives
// its four terms in argument order, one rounded add each, but is loaded and
// stored once instead of four times.
func axpy4(y []float64, a0 float64, v0 []float64, a1 float64, v1 []float64, a2 float64, v2 []float64, a3 float64, v3 []float64) {
	v0, v1, v2, v3 = v0[:len(y)], v1[:len(y)], v2[:len(y)], v3[:len(y)]
	for i := range y {
		y[i] = y[i] + a0*v0[i] + a1*v1[i] + a2*v2[i] + a3*v3[i]
	}
}

// backwardRows accumulates the layer's parameter gradients over the n rows of
// x (n×In) and dy (n×Out, the loss gradient w.r.t. the layer output) in row
// order and — unless dx is nil — writes the gradient w.r.t. x into dx
// (n×In). On the assembly path gradW takes one call for all n rows and each
// dX row is the one-row forward tile over W; the Go loops sweep gradW four
// rows at a time and dX four outputs at a time.
func (d *Dense) backwardRows(x, dy, dx []float64, n int) {
	in, out := d.In, d.Out
	if useAsm {
		d.backwardRowsSIMD(x, dy, dx, n)
		return
	}
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		g := dy[r*out : (r+4)*out]
		for o := 0; o < out; o++ {
			g0, g1, g2, g3 := g[o], g[out+o], g[2*out+o], g[3*out+o]
			d.gradB[o] = d.gradB[o] + g0 + g1 + g2 + g3
			axpy4(d.gradW[o*in:(o+1)*in], g0, x0, g1, x1, g2, x2, g3, x3)
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		for o, g := range dy[r*out : (r+1)*out] {
			d.gradB[o] += g
			axpy(d.gradW[o*in:(o+1)*in], g, xr)
		}
	}
	if dx == nil {
		return
	}
	for r := 0; r < n; r++ {
		g := dy[r*out : (r+1)*out]
		dxr := dx[r*in : (r+1)*in]
		clear(dxr)
		o := 0
		for ; o+4 <= out; o += 4 {
			axpy4(dxr, g[o], d.W[o*in:(o+1)*in], g[o+1], d.W[(o+1)*in:(o+2)*in],
				g[o+2], d.W[(o+2)*in:(o+3)*in], g[o+3], d.W[(o+3)*in:(o+4)*in])
		}
		for ; o < out; o++ {
			axpy(dxr, g[o], d.W[o*in:(o+1)*in])
		}
	}
}

// applyActivation applies act elementwise, the per-element dispatch of
// act.apply hoisted out of the loop. On AVX2 hardware tanh runs four lanes at
// a time (tanh_amd64.s), each lane the same bits as mathx.Tanh.
func applyActivation(act Activation, span []float64) {
	switch act {
	case Tanh:
		if useAsm {
			tanhSIMD(span)
			return
		}
		for j, v := range span {
			span[j] = mathx.Tanh(v)
		}
	case ReLU:
		for j, v := range span {
			if v < 0 {
				span[j] = 0
			}
		}
	}
}

// forward runs the network layer by layer over the n rows stored in acts[0]
// (acts[i] is n×width_i, row-major) and returns the output matrix. On the
// assembly path the dense layers read the transposed weights, through the
// training kernel's SIMD tiles or, for a GEMM cache (gemm), the fused
// inference kernel. Every cache's hidden activation is applyActivation, so
// its tanh is mathx.Tanh bit for bit.
func (m *MLP) forward(acts [][]float64, n int, gemm bool) []float64 {
	var wts [][]float64
	if useAsm || raceEnabled {
		wts = m.transposes()
	}
	last := len(m.layers) - 1
	for i, l := range m.layers {
		x, y := acts[i], acts[i+1][:n*l.Out]
		switch {
		case !useAsm:
			l.forwardRows(x, y, n)
		case gemm:
			l.forwardRowsFMA(x, y, wts[i], n)
		default:
			l.forwardRowsSIMD(x, y, wts[i], n)
		}
		if i == last {
			break
		}
		applyActivation(m.hidden, y)
	}
	return acts[last+1][:n*m.OutputSize()]
}

// transposes returns every layer's weights transposed (In×Out), rebuilding
// them first if a weight write bumped the version since they were built. The
// check is an atomic load, so concurrent forwards of an unchanging network —
// serve's shards on one snapshot — share one set of transposes, and the
// first of them to arrive after a write rebuilds it under wtMu while the
// others wait. Race builds also compare the result against the live weights
// and panic on a write the version did not see (see Params).
func (m *MLP) transposes() [][]float64 {
	if m.built.Load() != m.version.Load() {
		m.rebuildTransposes()
	}
	if raceEnabled {
		m.checkTransposes()
	}
	return m.wt
}

// rebuildTransposes transposes every layer's weights into wt, resizing it
// when the architecture changed (UnmarshalJSON) and allocating nothing
// otherwise.
func (m *MLP) rebuildTransposes() {
	m.wtMu.Lock()
	defer m.wtMu.Unlock()
	v := m.version.Load()
	if m.built.Load() == v {
		return
	}
	size := 0
	for _, l := range m.layers {
		size += l.In * l.Out
	}
	if len(m.wtArena) != size {
		m.wtArena = make([]float64, size)
	}
	if len(m.wt) != len(m.layers) {
		m.wt = make([][]float64, len(m.layers))
	}
	arena := m.wtArena
	for i, l := range m.layers {
		n := l.In * l.Out
		m.wt[i] = arena[:n:n]
		arena = arena[n:]
		transposeInto(l.W, m.wt[i], l.Out, l.In)
	}
	m.built.Store(v)
}

// checkTransposes panics if a layer's cached transpose differs from its live
// weights: a write through Params views held across a forward. It runs on
// every forward of a race build, so it is not instrumented itself: the
// detector would make it the slowest part of the pass.
//
//go:norace
func (m *MLP) checkTransposes() {
	for i, l := range m.layers {
		wt := m.wt[i]
		for o := 0; o < l.Out; o++ {
			for k, w := range l.W[o*l.In : (o+1)*l.In] {
				if math.Float64bits(w) != math.Float64bits(wt[k*l.Out+o]) {
					panic(fmt.Sprintf("nn: layer %d weights changed since their transpose was built: a write through Params views taken before a forward (take the views again after each forward)", i))
				}
			}
		}
	}
}

// transposeInto writes the Out×In row-major matrix w as an In×Out row-major
// matrix into wt.
func transposeInto(w, wt []float64, out, in int) {
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		for i, v := range row {
			wt[i*out+o] = v
		}
	}
}

// backwardLayers is the matching backward pass: dacts[len(layers)] holds the
// loss gradient w.r.t. the n output rows on entry, and each dacts[i] receives
// the gradient w.r.t. acts[i] on the way down. A nil dacts[0] skips the
// input gradient, which no minibatch caller reads.
func (m *MLP) backwardLayers(acts, dacts [][]float64, n int) {
	last := len(m.layers) - 1
	for i := last; i >= 0; i-- {
		l := m.layers[i]
		dy := dacts[i+1][:n*l.Out]
		if i < last {
			// Undo the hidden activation applied to this layer's output.
			for j, y := range acts[i+1][:n*l.Out] {
				dy[j] *= m.hidden.derivFromOutput(y)
			}
		}
		l.backwardRows(acts[i], dy, dacts[i], n)
	}
}
