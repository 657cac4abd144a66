package nn

import (
	"encoding/json"
	"testing"

	"advnet/internal/mathx"
)

// FuzzMLPUnmarshalJSON checks the deserialization contract: arbitrary bytes
// either fail with an error or produce a network that is actually usable —
// never a panic, and never a half-initialized model.
func FuzzMLPUnmarshalJSON(f *testing.F) {
	m := NewMLP(mathx.NewRNG(1), []int{3, 4, 2}, Tanh)
	valid, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"sizes":[3,0],"hidden":"tanh","w":[[]],"b":[[]]}`))
	f.Add([]byte(`{"sizes":[1,1],"hidden":"relu","w":[[0.5]],"b":[[0.25]]}`))
	f.Add([]byte(`{"sizes":[2,1],"hidden":"tanh","w":[[1]],"b":[[0]]}`)) // W too short for 2×1
	f.Add([]byte(`{"sizes":[1,1,1],"hidden":"tanh","w":[[1]],"b":[[0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var net MLP
		if err := json.Unmarshal(data, &net); err != nil {
			return
		}
		out, _ := net.Forward(make([]float64, net.InputSize()))
		if len(out) != net.OutputSize() {
			t.Fatalf("forward returned %d outputs, want %d", len(out), net.OutputSize())
		}
	})
}

// FuzzBatchKernelMatchesReference lets the fuzzer pick the network shape, the
// batch size, the activation and the input stream (plain or salted with ±0,
// subnormals, ±Inf and NaN) and checks the tiled kernel — batched and one row
// at a time, on every dispatch path — against the scalar reference loops, bit
// for bit.
func FuzzBatchKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(63), uint8(5), uint8(63), uint8(1), false) // Pensieve-sized, every remainder
	f.Add(uint64(2), uint8(1), uint8(3), uint8(0), uint8(0), uint8(0), true)     // CC toy net, one row, specials
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint8(2), uint8(2), false)    // all widths 1
	f.Add(uint64(4), uint8(7), uint8(4), uint8(8), uint8(4), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, in, hid, out, n, act uint8, salt bool) {
		sizes := []int{1 + int(in)%64, 1 + int(hid)%64, 1 + int(out)%16}
		eachKernel(func(kernel string) {
			checkKernelMatchesReference(t, kernel, mathx.NewRNG(seed), sizes, Activation(act%3), 1+int(n)%80, salt)
		})
	})
}

// FuzzKernelSIMDMatchesGo lets the fuzzer pick one dense layer (in, out ∈
// 1..70, so every 16/4/1 tile and remainder is hit), a batch of n ∈ 1..9 rows
// and the values (plain or salted with ±0, subnormals, ±Inf and NaN), and
// runs the same work on every dispatch path: the batched and the one-row
// forward, gradW/gradB of the batch and of each row, each row's dX, and two
// Adam steps. Every result and Adam moment must be the Go loops' bits (any
// NaN matching any NaN).
func FuzzKernelSIMDMatchesGo(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(63), uint8(8), true) // Pensieve layer 1, a group and a row
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), false)  // 1×1, one row
	f.Add(uint64(3), uint8(69), uint8(69), uint8(3), true) // widest, 64+4+1+1
	f.Add(uint64(4), uint8(22), uint8(18), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed uint64, in, out, n uint8, salt bool) {
		sizes := []int{1 + int(in)%70, 1 + int(out)%70}
		rows := 1 + int(n)%9
		var kernels []string
		var runs [][]float64
		eachKernel(func(kernel string) {
			kernels = append(kernels, kernel)
			runs = append(runs, kernelRun(mathx.NewRNG(seed), sizes, rows, salt))
		})
		for k := 1; k < len(runs); k++ {
			for i := range runs[0] {
				if !sameBits(runs[0][i], runs[k][i]) {
					t.Fatalf("%v n=%d result %d: %s %v, %s %v", sizes, rows, i, kernels[0], runs[0][i], kernels[k], runs[k][i])
				}
			}
		}
	})
}

// kernelRun runs every kernel once on the current dispatch path over one
// layer and n rows drawn from rng, and returns all results in one slice.
func kernelRun(rng *mathx.RNG, sizes []int, n int, salt bool) []float64 {
	m := NewMLP(rng, sizes, Identity)
	for _, p := range m.Params() {
		copy(p, kernelInputs(rng, 1, len(p), salt))
	}
	in, out := sizes[0], sizes[1]
	xs := kernelInputs(rng, n, in, salt)
	gs := kernelInputs(rng, n, out, salt)

	bc := m.NewBatchCache(n)
	res := append([]float64(nil), m.ForwardBatch(bc, xs, n)...)
	m.BackwardBatch(bc, gs)
	c := m.NewCache()
	for r := 0; r < n; r++ {
		res = append(res, m.ForwardInto(c, xs[r*in:(r+1)*in])...)
		res = append(res, m.BackwardInto(c, gs[r*out:(r+1)*out])...)
	}
	for _, g := range m.Grads() {
		res = append(res, g...)
	}
	adam := NewAdam(1e-3)
	for step := 0; step < 2; step++ {
		adam.Step(m.Params(), m.Grads())
	}
	for i, p := range m.Params() {
		res = append(append(append(res, p...), adam.m[i]...), adam.v[i]...)
	}
	return res
}
