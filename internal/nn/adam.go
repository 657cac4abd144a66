package nn

import (
	"fmt"
	"math"

	"advnet/internal/mathx"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over a fixed set of
// parameter slices. The moment buffers are lazily sized on the first Step.
type Adam struct {
	LR    float64 // learning rate
	Beta1 float64 // first-moment decay, default 0.9
	Beta2 float64 // second-moment decay, default 0.999
	Eps   float64 // numerical stabilizer, default 1e-8

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update: params[i] -= lr * mhat / (sqrt(vhat) + eps),
// where the moments are estimated from grads. params and grads must be
// parallel and keep the same shapes across calls.
func (a *Adam) Step(params, grads [][]float64) {
	if len(params) != len(grads) {
		panic("nn: Adam.Step params/grads mismatch")
	}
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p))
			a.v[i] = make([]float64, len(p))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		if len(g) != len(p) || len(m) != len(p) {
			panic("nn: Adam.Step shape changed between calls")
		}
		j0 := 0
		if useAsm {
			// Four lanes of this loop's sequence (kernel_amd64.s).
			j0 = adamSIMD(p, g, m, v, a.Beta1, a.Beta2, c1, c2, a.LR, a.Eps)
		}
		for j := j0; j < len(p); j++ {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mhat := m[j] / c1
			vhat := v[j] / c2
			p[j] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// AdamState is the serializable optimizer state: the step counter and both
// moment estimates. Together with the parameters it makes an interrupted
// training run resumable bit-for-bit.
type AdamState struct {
	T int         `json:"t"`
	M [][]float64 `json:"m,omitempty"`
	V [][]float64 `json:"v,omitempty"`
}

// State captures a deep copy of the optimizer's moments and step counter.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t}
	for _, m := range a.m {
		st.M = append(st.M, mathx.CopyOf(m))
	}
	for _, v := range a.v {
		st.V = append(st.V, mathx.CopyOf(v))
	}
	return st
}

// SetState restores a state captured with State. The moment group shapes
// must be mutually consistent; Step later re-validates them against the
// parameter shapes it is given.
func (a *Adam) SetState(st AdamState) error {
	if len(st.M) != len(st.V) {
		return fmt.Errorf("nn: Adam state m/v group count mismatch: %d vs %d", len(st.M), len(st.V))
	}
	for i := range st.M {
		if len(st.M[i]) != len(st.V[i]) {
			return fmt.Errorf("nn: Adam state group %d m/v size mismatch: %d vs %d", i, len(st.M[i]), len(st.V[i]))
		}
	}
	if st.T < 0 {
		return fmt.Errorf("nn: Adam state negative step counter %d", st.T)
	}
	a.t = st.T
	if len(st.M) == 0 {
		a.m, a.v = nil, nil
		return nil
	}
	a.m = make([][]float64, len(st.M))
	a.v = make([][]float64, len(st.V))
	for i := range st.M {
		a.m[i] = mathx.CopyOf(st.M[i])
		a.v[i] = mathx.CopyOf(st.V[i])
	}
	return nil
}

// Reset clears the moment estimates and the step counter.
func (a *Adam) Reset() {
	a.t = 0
	a.m = nil
	a.v = nil
}
