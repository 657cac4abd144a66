//go:build !amd64

package nn

// eachKernel runs fn on the only dispatch path there is without the amd64
// assembly: the Go loops.
func eachKernel(fn func(kernel string)) { fn("go") }
