//go:build amd64

package nn

// cpuidAsm executes CPUID with the given leaf and subleaf.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads extended control register 0 (OS-enabled XSAVE state).
func xgetbvAsm() (eax, edx uint32)

// gemmKernelAsm computes y[j] = init[j] + Σ_{i<k} x[i]·m[i*o+j] for j in
// [0,o) with AVX2 fused multiply-adds. All four pointers must reference at
// least o (y, init) / k (x) / k*o (m) valid float64s; init may alias y.
//
//go:noescape
func gemmKernelAsm(y, init, x, m *float64, k, o int)

// useAsm gates every assembly kernel of the package: the training kernel's
// SIMD forward, backward and Adam tiles (kernel_amd64.s), the lane-exact tanh
// that every cache's forward runs (tanh_amd64.s), and the inference GEMM
// cache's FMA dense forward (fma_amd64.s).
// It is a variable (not a constant) so tests can force the Go loops on AVX2
// hardware; nothing else may write it after init.
var useAsm = cpuSupportsAsm()

// cpuSupportsAsm reports whether the CPU and OS support what the assembly
// kernels need: the YMM state, AVX2, and FMA (used by the inference dense
// kernel, and by the tanh exactly where mathx.Exp fuses; the training dense
// loops never fuse).
func cpuSupportsAsm() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// The OS must have enabled XMM and YMM state saving.
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// gemmRowFMA is the per-row GEMM step on the assembly path: y = init + x·M
// for one batch row (M is k×o row-major).
func gemmRowFMA(y, init, x, m []float64, k, o int) {
	gemmKernelAsm(&y[0], &init[0], &x[0], &m[0], k, o)
}
