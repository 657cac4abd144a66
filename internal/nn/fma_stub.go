//go:build !amd64

package nn

// useAsm is always false without the amd64 assembly: every pass runs the Go
// loops of the one dense kernel, a GEMM cache's forward pass included.
const useAsm = false

// gemmRowFMA is never called when useAsm is false.
func gemmRowFMA(y, init, x, m []float64, k, o int) {
	panic("nn: gemmRowFMA without assembly support")
}

// vtanh is never called when useAsm is false.
func vtanh(span []float64) {
	panic("nn: vtanh without assembly support")
}

// tanhSIMD is never called when useAsm is false.
func tanhSIMD(span []float64) {
	panic("nn: tanhSIMD without assembly support")
}

// forwardRowsSIMD is never called when useAsm is false.
func (d *Dense) forwardRowsSIMD(x, y, wt []float64, n int) {
	panic("nn: forwardRowsSIMD without assembly support")
}

// axpy4SIMD is never called when useAsm is false.
func axpy4SIMD(y []float64, a0 float64, v0 []float64, a1 float64, v1 []float64, a2 float64, v2 []float64, a3 float64, v3 []float64) {
	panic("nn: axpy4SIMD without assembly support")
}
