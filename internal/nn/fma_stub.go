//go:build !amd64

package nn

// useAsm is always false without the amd64 assembly: every pass runs the Go
// loops of the one dense kernel, a GEMM cache's forward pass included.
const useAsm = false

// gemmRowFMA is never called when useAsm is false.
func gemmRowFMA(y, init, x, m []float64, k, o int) {
	panic("nn: gemmRowFMA without assembly support")
}

// tanhSIMD is never called when useAsm is false.
func tanhSIMD(span []float64) {
	panic("nn: tanhSIMD without assembly support")
}

// forwardRowsSIMD is never called when useAsm is false.
func (d *Dense) forwardRowsSIMD(x, y, wt []float64, n int) {
	panic("nn: forwardRowsSIMD without assembly support")
}

// backwardRowsSIMD is never called when useAsm is false.
func (d *Dense) backwardRowsSIMD(x, dy, dx []float64, n int) {
	panic("nn: backwardRowsSIMD without assembly support")
}

// adamSIMD is never called when useAsm is false.
func adamSIMD(p, g, m, v []float64, b1, b2, c1, c2, lr, eps float64) int {
	panic("nn: adamSIMD without assembly support")
}
