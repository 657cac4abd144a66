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
