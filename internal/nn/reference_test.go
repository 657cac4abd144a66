package nn

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// The test oracle: the scalar, row-at-a-time loops every pass ran before the
// tiled kernel replaced them — one mathx.Dot per neuron forward, one
// multiply-add loop per neuron backward, one sample at a time. They define the
// operation order the kernel must reproduce bit for bit.

// apply is the one-value activation the reference passes apply per output.
func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return mathx.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

func (d *Dense) refForward(x, out []float64) {
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		out[o] = d.B[o] + mathx.Dot(row, x)
	}
}

func (d *Dense) refBackward(x, dOut, dX []float64) {
	for o := 0; o < d.Out; o++ {
		g := dOut[o]
		d.gradB[o] += g
		row := d.gradW[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			row[i] += g * xi
		}
	}
	mathx.Fill(dX, 0)
	for o := 0; o < d.Out; o++ {
		for i, w := range d.W[o*d.In : (o+1)*d.In] {
			dX[i] += dOut[o] * w
		}
	}
}

// refForwardInto is the historical MLP.ForwardInto.
func refForwardInto(m *MLP, c *Cache, x []float64) []float64 {
	copy(c.acts[0], x)
	cur := c.acts[0]
	for i, l := range m.layers {
		out := c.acts[i+1]
		l.refForward(cur, out)
		if i < len(m.layers)-1 {
			for j := range out {
				out[j] = m.hidden.apply(out[j])
			}
		}
		cur = out
	}
	return cur
}

// refBackwardInto is the historical MLP.BackwardInto.
func refBackwardInto(m *MLP, c *Cache, dOut []float64) []float64 {
	c.ensureDacts()
	grad := c.dacts[len(m.layers)]
	copy(grad, dOut)
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		if i < len(m.layers)-1 {
			y := c.acts[i+1]
			for j := range grad {
				grad[j] *= m.hidden.derivFromOutput(y[j])
			}
		}
		dX := c.dacts[i]
		l.refBackward(c.acts[i], grad, dX)
		grad = dX
	}
	return grad
}

// sameBits reports bit-for-bit equality, except that any NaN equals any NaN:
// which operand's payload an instruction propagates when both are NaN depends
// on register allocation, which the language does not pin.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// specials are the values ordinary random inputs never hit.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2e-308, -1e-310, // subnormals and the smallest normal
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
}

// kernelInputs returns a rows×width matrix of values in (-2, 2). With salt,
// about one value in eight is replaced by a special.
func kernelInputs(rng *mathx.RNG, rows, width int, salt bool) []float64 {
	xs := makeBatch(rng, rows, width)
	if salt {
		for i := range xs {
			if rng.Intn(8) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return xs
}

// checkKernelMatchesReference drives one network three ways over the same n
// rows, twice without ZeroGrad in between so the second pass accumulates onto
// the first: the scalar reference one sample at a time, the kernel one sample
// at a time (ForwardInto/BackwardInto, its n = 1 case), and the kernel over
// the whole batch. Outputs, the per-sample input gradient, gradW and gradB
// must all agree bit for bit. kernel names the dispatch path in failures.
func checkKernelMatchesReference(t *testing.T, kernel string, rng *mathx.RNG, sizes []int, hidden Activation, n int, salt bool) {
	t.Helper()
	ref := NewMLP(rng, sizes, hidden)
	for _, l := range ref.layers {
		copy(l.B, makeBatch(rng, 1, l.Out)) // NewMLP's zero biases would hide a bias-first sum
	}
	if salt {
		for _, p := range ref.Params() {
			for i := range p {
				if rng.Intn(16) == 0 {
					p[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
	}
	one, batch := ref.Clone(), ref.Clone()
	in, out := ref.InputSize(), ref.OutputSize()
	rc, oc, bc := ref.NewCache(), one.NewCache(), batch.NewBatchCache(n)

	for pass := 0; pass < 2; pass++ {
		xs := kernelInputs(rng, n, in, salt)
		douts := kernelInputs(rng, n, out, salt)
		batchOut := batch.ForwardBatch(bc, xs, n)
		batch.BackwardBatch(bc, douts)
		for r := 0; r < n; r++ {
			x, dOut := xs[r*in:(r+1)*in], douts[r*out:(r+1)*out]
			want := refForwardInto(ref, rc, x)
			got := one.ForwardInto(oc, x)
			for j := range want {
				if !sameBits(want[j], got[j]) || !sameBits(want[j], batchOut[r*out+j]) {
					t.Fatalf("%s kernel %v %v n=%d pass %d out[%d][%d]: reference %v, n=1 %v, batch %v",
						kernel, sizes, hidden, n, pass, r, j, want[j], got[j], batchOut[r*out+j])
				}
			}
			wantDX := refBackwardInto(ref, rc, dOut)
			gotDX := one.BackwardInto(oc, dOut)
			for j := range wantDX {
				if !sameBits(wantDX[j], gotDX[j]) {
					t.Fatalf("%s kernel %v %v n=%d pass %d dX[%d][%d]: reference %v, n=1 %v",
						kernel, sizes, hidden, n, pass, r, j, wantDX[j], gotDX[j])
				}
			}
		}
	}
	gr, g1, gb := ref.Grads(), one.Grads(), batch.Grads()
	for pi := range gr {
		for i := range gr[pi] {
			if !sameBits(gr[pi][i], g1[pi][i]) || !sameBits(gr[pi][i], gb[pi][i]) {
				t.Fatalf("%s kernel %v %v n=%d grad[%d][%d]: reference %v, n=1 %v, batch %v",
					kernel, sizes, hidden, n, pi, i, gr[pi][i], g1[pi][i], gb[pi][i])
			}
		}
	}
}
