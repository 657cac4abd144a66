package nn

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"advnet/internal/mathx"
)

func TestActivationString(t *testing.T) {
	if Identity.String() != "identity" || Tanh.String() != "tanh" || ReLU.String() != "relu" {
		t.Error("activation names wrong")
	}
}

func TestActivationApply(t *testing.T) {
	if ReLU.apply(-1) != 0 || ReLU.apply(2) != 2 {
		t.Error("relu apply")
	}
	if math.Abs(Tanh.apply(0)) > 1e-15 {
		t.Error("tanh(0) != 0")
	}
	if Identity.apply(3.5) != 3.5 {
		t.Error("identity apply")
	}
}

func TestForwardShapes(t *testing.T) {
	rng := mathx.NewRNG(1)
	m := NewMLP(rng, []int{3, 5, 2}, Tanh)
	if m.InputSize() != 3 || m.OutputSize() != 2 {
		t.Fatal("sizes wrong")
	}
	out := m.Predict([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output length %d", len(out))
	}
	sizes := m.Sizes()
	want := []int{3, 5, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("Sizes() = %v", sizes)
		}
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input size")
		}
	}()
	m := NewMLP(mathx.NewRNG(1), []int{3, 2}, Tanh)
	m.Predict([]float64{1})
}

// numericGrad computes d loss / d Params()[pi][idx] by central differences,
// where loss is sum(output * coef) for a fixed coefficient vector. Each write
// goes through views taken after the last forward (see Params).
func numericGrad(m *MLP, x, coef []float64, pi, idx int) float64 {
	const h = 1e-6
	orig := m.Params()[pi][idx]
	m.Params()[pi][idx] = orig + h
	lossP := mathx.Dot(m.Predict(x), coef)
	m.Params()[pi][idx] = orig - h
	lossM := mathx.Dot(m.Predict(x), coef)
	m.Params()[pi][idx] = orig
	return (lossP - lossM) / (2 * h)
}

func testBackpropAgainstNumeric(t *testing.T, hidden Activation, seed uint64) {
	t.Helper()
	rng := mathx.NewRNG(seed)
	m := NewMLP(rng, []int{4, 6, 5, 3}, hidden)
	x := []float64{0.3, -0.7, 1.1, 0.2}
	coef := []float64{1.0, -2.0, 0.5}

	_, cache := m.Forward(x)
	m.ZeroGrad()
	dx := m.Backward(cache, coef)

	// Check parameter gradients.
	params := m.Params()
	grads := m.Grads()
	for pi := range params {
		for idx := 0; idx < len(params[pi]); idx += 3 { // sample every 3rd for speed
			want := numericGrad(m, x, coef, pi, idx)
			got := grads[pi][idx]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("hidden=%v param[%d][%d]: grad %v, numeric %v", hidden, pi, idx, got, want)
			}
		}
	}

	// Check input gradient.
	for i := range x {
		const h = 1e-6
		orig := x[i]
		xp := mathx.CopyOf(x)
		xp[i] = orig + h
		xm := mathx.CopyOf(x)
		xm[i] = orig - h
		want := (mathx.Dot(m.Predict(xp), coef) - mathx.Dot(m.Predict(xm), coef)) / (2 * h)
		if math.Abs(dx[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("hidden=%v dx[%d]: got %v, numeric %v", hidden, i, dx[i], want)
		}
	}
}

func TestBackpropNumericTanh(t *testing.T)     { testBackpropAgainstNumeric(t, Tanh, 11) }
func TestBackpropNumericReLU(t *testing.T)     { testBackpropAgainstNumeric(t, ReLU, 13) }
func TestBackpropNumericIdentity(t *testing.T) { testBackpropAgainstNumeric(t, Identity, 17) }

func TestGradientAccumulation(t *testing.T) {
	rng := mathx.NewRNG(3)
	m := NewMLP(rng, []int{2, 3, 1}, Tanh)
	x := []float64{0.5, -0.5}
	dOut := []float64{1}

	_, c := m.Forward(x)
	m.ZeroGrad()
	m.Backward(c, dOut)
	g1 := mathx.CopyOf(m.Grads()[0])
	m.Backward(c, dOut)
	g2 := m.Grads()[0]
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("gradients do not accumulate: %v vs %v", g2[i], 2*g1[i])
		}
	}
	m.ZeroGrad()
	if m.GradNorm() != 0 {
		t.Fatal("ZeroGrad left gradients")
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := mathx.NewRNG(5)
	m := NewMLP(rng, []int{2, 2}, Identity)
	_, c := m.Forward([]float64{10, 10})
	m.ZeroGrad()
	m.Backward(c, []float64{100, 100})
	m.ClipGradNorm(1.0)
	if n := m.GradNorm(); n > 1.0+1e-9 {
		t.Fatalf("clipped norm = %v", n)
	}
}

func TestXORTraining(t *testing.T) {
	rng := mathx.NewRNG(7)
	m := NewMLP(rng, []int{2, 8, 1}, Tanh)
	opt := NewAdam(0.02)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}

	for epoch := 0; epoch < 2000; epoch++ {
		m.ZeroGrad()
		for i, x := range inputs {
			out, c := m.Forward(x)
			diff := out[0] - targets[i]
			m.Backward(c, []float64{2 * diff})
		}
		m.ScaleGrads(1.0 / float64(len(inputs)))
		opt.Step(m.Params(), m.Grads())
	}

	for i, x := range inputs {
		out := m.Predict(x)[0]
		if math.Abs(out-targets[i]) > 0.15 {
			t.Fatalf("XOR not learned: f(%v) = %v, want %v", x, out, targets[i])
		}
	}
}

func TestAdamBeatsSGDOnIllConditioned(t *testing.T) {
	// Minimize f(x) = x0^2 + 100*x1^2 starting from (1,1). Adam should make
	// steady progress on both coordinates.
	params := [][]float64{{1, 1}}
	adam := NewAdam(0.05)
	for i := 0; i < 500; i++ {
		g := [][]float64{{2 * params[0][0], 200 * params[0][1]}}
		adam.Step(params, g)
	}
	if math.Abs(params[0][0]) > 0.05 || math.Abs(params[0][1]) > 0.05 {
		t.Fatalf("Adam failed to converge: %v", params[0])
	}
	if adam.t != 500 {
		t.Fatalf("steps = %d", adam.t)
	}
}

func TestAdamReset(t *testing.T) {
	a := NewAdam(0.1)
	p := [][]float64{{1}}
	a.Step(p, [][]float64{{1}})
	a.Reset()
	if a.t != 0 {
		t.Fatal("Reset did not clear step count")
	}
	// Must not panic with new shapes after reset.
	a.Step([][]float64{{1, 2}}, [][]float64{{0.1, 0.1}})
}

func TestCloneIndependence(t *testing.T) {
	rng := mathx.NewRNG(21)
	m := NewMLP(rng, []int{2, 4, 1}, Tanh)
	c := m.Clone()
	x := []float64{0.1, 0.2}
	if m.Predict(x)[0] != c.Predict(x)[0] {
		t.Fatal("clone differs from original")
	}
	m.Params()[0][0] += 1
	if m.Predict(x)[0] == c.Predict(x)[0] {
		t.Fatal("clone shares parameters with original")
	}
}

func TestCopyParamsFrom(t *testing.T) {
	rng := mathx.NewRNG(23)
	a := NewMLP(rng, []int{2, 3, 1}, Tanh)
	b := NewMLP(rng, []int{2, 3, 1}, Tanh)
	x := []float64{0.4, -0.9}
	if a.Predict(x)[0] == b.Predict(x)[0] {
		t.Fatal("networks should start different")
	}
	if err := b.CopyParamsFrom(a); err != nil {
		t.Fatal(err)
	}
	if a.Predict(x)[0] != b.Predict(x)[0] {
		t.Fatal("CopyParamsFrom did not copy")
	}
	c := NewMLP(rng, []int{2, 4, 1}, Tanh)
	if err := c.CopyParamsFrom(a); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(29)
	m := NewMLP(rng, []int{3, 7, 2}, ReLU)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded := new(MLP)
	if err := json.Unmarshal(data, loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Hidden() != ReLU {
		t.Fatal("activation not preserved")
	}
	f := func(a, b, c float64) bool {
		x := []float64{mathx.Clamp(a, -5, 5), mathx.Clamp(b, -5, 5), mathx.Clamp(c, -5, 5)}
		ya := m.Predict(x)
		yb := loaded.Predict(x)
		return ya[0] == yb[0] && ya[1] == yb[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := new(MLP)
	if err := m.UnmarshalJSON([]byte(`{"sizes":[2],"hidden":"tanh","w":[],"b":[]}`)); err == nil {
		t.Fatal("accepted snapshot with one size")
	}
	if err := m.UnmarshalJSON([]byte(`{"sizes":[2,3],"hidden":"swish","w":[[0,0,0,0,0,0]],"b":[[0,0,0]]}`)); err == nil {
		t.Fatal("accepted unknown activation")
	}
	if err := m.UnmarshalJSON([]byte(`{"sizes":[2,3],"hidden":"tanh","w":[[0]],"b":[[0,0,0]]}`)); err == nil {
		t.Fatal("accepted wrong weight shape")
	}
}

func TestNumParams(t *testing.T) {
	m := NewMLP(mathx.NewRNG(1), []int{4, 32, 16, 3}, Tanh)
	want := 4*32 + 32 + 32*16 + 16 + 16*3 + 3
	got := 0
	for _, p := range m.params {
		got += len(p)
	}
	if got != want {
		t.Fatalf("%d parameters, want %d", got, want)
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := mathx.NewRNG(31)
	d := NewDense(rng, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	for _, w := range d.W {
		if math.Abs(w) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", w, limit)
		}
	}
	for _, b := range d.B {
		if b != 0 {
			t.Fatal("bias not zero-initialized")
		}
	}
}
