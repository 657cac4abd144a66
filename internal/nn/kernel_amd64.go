//go:build amd64

package nn

// denseRows4Asm writes y = x·wt + b for four rows of x (4×in, row-major)
// into y (4×out), wt being the layer's weights transposed (in×out). Each
// output is summed from +0, k ascending, with one rounded multiply and one
// rounded add per term and the bias added last: forwardRows' sequence. in
// must be positive.
//
//go:noescape
func denseRows4Asm(y, b, x, wt *float64, in, out int)

// denseRow1Asm is denseRows4Asm for one row: y = x·wt + b for x of length in
// and y of length out, with the same per-output sequence. A nil b adds no
// bias, which makes it the dX sweep when wt is a layer's own W (Out×In). in
// must be positive.
//
//go:noescape
func denseRow1Asm(y, b, x, wt *float64, in, out int)

// gradRowsAsm accumulates gw[o·in+i] += dy[r·out+o]·x[r·in+i] for every
// output o < out and input i < in, r ascending over the n rows of dy (n×out)
// and x (n×in): one rounded multiply and one rounded add per term, the
// sequence of backwardRows' axpy sweeps. n must be positive.
//
//go:noescape
func gradRowsAsm(gw, dy, x *float64, n, in, out int)

// adamAsm is Adam.Step's element update over n elements, four per ymm
// register, in the Go loop's operation order; n must be a positive multiple
// of four. ob1 and ob2 are 1−b1 and 1−b2.
//
//go:noescape
func adamAsm(p, gr, m, v *float64, n int, b1, ob1, b2, ob2, c1, c2, lr, eps float64)

// tanhAsm replaces p[0:n] with mathx.Tanh of each element, bit for bit, four
// lanes at a time; n must be a positive multiple of four. See tanh_amd64.s.
//
//go:noescape
func tanhAsm(p *float64, n int)

// tanhSIMD is applyActivation's tanh loop on the assembly path, padding the
// tail through a stack buffer so every element runs the same kernel. Callers
// must have checked useAsm.
func tanhSIMD(span []float64) {
	n := len(span) &^ 3
	if n > 0 {
		tanhAsm(&span[0], n)
	}
	if rem := len(span) - n; rem > 0 {
		var buf [4]float64
		copy(buf[:], span[n:])
		tanhAsm(&buf[0], 4)
		copy(span[n:], buf[:rem])
	}
}

// forwardRowsSIMD is forwardRows on the assembly path: groups of four rows run
// through denseRows4Asm over wt (the layer's weights transposed, In×Out) and
// the remaining rows through denseRow1Asm. Callers must have checked useAsm.
func (d *Dense) forwardRowsSIMD(x, y, wt []float64, n int) {
	in, out := d.In, d.Out
	_, _, _, _ = x[n*in-1], y[n*out-1], wt[in*out-1], d.B[out-1]
	r := 0
	for ; r+4 <= n; r += 4 {
		denseRows4Asm(&y[r*out], &d.B[0], &x[r*in], &wt[0], in, out)
	}
	for ; r < n; r++ {
		denseRow1Asm(&y[r*out], &d.B[0], &x[r*in], &wt[0], in, out)
	}
}

// backwardRowsSIMD is backwardRows on the assembly path: gradB in Go, gradW
// for all n rows in one gradRowsAsm call, and each dX row through
// denseRow1Asm with W (Out×In) as the transposed matrix of the backward map.
// Callers must have checked useAsm.
func (d *Dense) backwardRowsSIMD(x, dy, dx []float64, n int) {
	in, out := d.In, d.Out
	_, _, _, _ = x[n*in-1], dy[n*out-1], d.gradW[in*out-1], d.W[in*out-1]
	gb := d.gradB[:out]
	for r := 0; r < n; r++ {
		for o, g := range dy[r*out : (r+1)*out] {
			gb[o] += g
		}
	}
	gradRowsAsm(&d.gradW[0], &dy[0], &x[0], n, in, out)
	if dx == nil {
		return
	}
	_ = dx[n*in-1]
	for r := 0; r < n; r++ {
		denseRow1Asm(&dx[r*in], nil, &dy[r*out], &d.W[0], out, in)
	}
}

// adamSIMD runs adamAsm over the longest multiple-of-four prefix of p and
// returns its length; the caller's Go loop finishes the tail. g, m and v have
// p's length. Callers must have checked useAsm.
func adamSIMD(p, g, m, v []float64, b1, b2, c1, c2, lr, eps float64) int {
	n := len(p) &^ 3
	if n > 0 {
		_, _, _ = g[n-1], m[n-1], v[n-1]
		adamAsm(&p[0], &g[0], &m[0], &v[0], n, b1, 1-b1, b2, 1-b2, c1, c2, lr, eps)
	}
	return n
}
