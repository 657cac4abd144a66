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

// axpy4Asm is axpy4 over n elements, four per ymm register.
//
//go:noescape
func axpy4Asm(y, v0, v1, v2, v3 *float64, n int, a0, a1, a2, a3 float64)

// tanhAsm replaces p[0:n] with mathx.Tanh of each element, bit for bit, four
// lanes at a time; n must be a positive multiple of four. See tanh_amd64.s.
//
//go:noescape
func tanhAsm(p *float64, n int)

// tanhSIMD is applyActivation's tanh loop on the assembly path, padding the
// tail through a stack buffer as vtanh does. Callers must have checked useAsm.
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
// the remaining rows through the Go tile. Callers must have checked useAsm.
func (d *Dense) forwardRowsSIMD(x, y, wt []float64, n int) {
	in, out := d.In, d.Out
	_, _, _, _ = x[n*in-1], y[n*out-1], wt[in*out-1], d.B[out-1]
	r := 0
	for ; r+4 <= n; r += 4 {
		denseRows4Asm(&y[r*out], &d.B[0], &x[r*in], &wt[0], in, out)
	}
	if r < n {
		d.forwardRows(x[r*in:], y[r*out:], n-r)
	}
}

// axpy4SIMD runs axpy4 through the assembly; the slices have y's length.
func axpy4SIMD(y []float64, a0 float64, v0 []float64, a1 float64, v1 []float64, a2 float64, v2 []float64, a3 float64, v3 []float64) {
	if len(y) > 0 {
		axpy4Asm(&y[0], &v0[0], &v1[0], &v2[0], &v3[0], len(y), a0, a1, a2, a3)
	}
}
