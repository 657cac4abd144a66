//go:build !amd64

package nn

// useFMA is always false without the amd64 assembly kernel; a GEMM cache's
// forward pass runs the one dense kernel.
const useFMA = false

// gemmRowFMA is never called when useFMA is false.
func gemmRowFMA(y, init, x, m []float64, k, o int) {
	panic("nn: gemmRowFMA without assembly support")
}

// vtanh is never called when useFMA is false.
func vtanh(span []float64) {
	panic("nn: vtanh without assembly support")
}
