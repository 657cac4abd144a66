// Package nn implements the small dense neural networks used by every RL
// agent in this repository: multi-layer perceptrons with tanh or ReLU hidden
// activations, exact backpropagation, Adam optimization, and JSON
// serialization. The paper's networks are tiny (at most two hidden layers of
// 32 and 16 neurons for the ABR adversary, a single layer of 4 neurons for
// the congestion-control adversary), so a straightforward float64
// implementation is both sufficient and fast.
package nn

import (
	"errors"
	"fmt"
	"math"

	"advnet/internal/mathx"
)

// Activation selects the nonlinearity applied after each hidden layer.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Tanh
	ReLU
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

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

// derivFromOutput returns dy/dx given y = act(x). Both tanh and ReLU admit
// this form, which avoids caching pre-activations.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Dense is a fully connected layer computing y = W·x + b.
type Dense struct {
	In, Out int
	W       []float64 // Out*In, row-major: W[o*In+i]
	B       []float64 // Out

	gradW []float64
	gradB []float64
}

// NewDense returns a layer with Xavier/Glorot-uniform initialized weights and
// zero biases.
func NewDense(rng *mathx.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic("nn: NewDense with non-positive dimension")
	}
	d := &Dense{
		In:    in,
		Out:   out,
		W:     make([]float64, in*out),
		B:     make([]float64, out),
		gradW: make([]float64, in*out),
		gradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = rng.Uniform(-limit, limit)
	}
	return d
}

// MLP is a multi-layer perceptron: dense layers with a shared hidden
// activation and an identity output layer.
//
// The network's parameters are safe for concurrent *readers*: any number of
// goroutines may run forward passes against the same MLP as long as each
// holds its own Cache/BatchCache and nothing mutates the parameters
// concurrently (training steps, CopyParamsFrom, UnmarshalJSON). The serving
// layer (internal/serve) relies on this by publishing immutable MLPs behind
// an atomic pointer.
type MLP struct {
	layers []*Dense
	hidden Activation

	// params/grads are the views Params/Grads hand out, built once per
	// architecture (setLayers) with len == cap so a caller's append copies
	// instead of writing into the shared backing array.
	params [][]float64
	grads  [][]float64
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, 32, 16,
// out] gives two hidden layers of 32 and 16 units. hidden is applied after
// every layer except the last.
func NewMLP(rng *mathx.RNG, sizes []int, hidden Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	layers := make([]*Dense, len(sizes)-1)
	for i := range layers {
		layers[i] = NewDense(rng, sizes[i], sizes[i+1])
	}
	m := &MLP{hidden: hidden}
	m.setLayers(layers)
	return m
}

// setLayers installs the network's layers and rebuilds the parameter and
// gradient views over them.
func (m *MLP) setLayers(layers []*Dense) {
	m.layers = layers
	m.params = make([][]float64, 0, 2*len(layers))
	m.grads = make([][]float64, 0, 2*len(layers))
	for _, l := range layers {
		m.params = append(m.params, l.W, l.B)
		m.grads = append(m.grads, l.gradW, l.gradB)
	}
}

// InputSize returns the expected input dimension.
func (m *MLP) InputSize() int { return m.layers[0].In }

// OutputSize returns the output dimension.
func (m *MLP) OutputSize() int { return m.layers[len(m.layers)-1].Out }

// Sizes returns the layer sizes, including input and output.
func (m *MLP) Sizes() []int {
	sizes := []int{m.layers[0].In}
	for _, l := range m.layers {
		sizes = append(sizes, l.Out)
	}
	return sizes
}

// Hidden returns the hidden activation.
func (m *MLP) Hidden() Activation { return m.hidden }

// Cache holds the per-layer activations of one forward pass, required to run
// the matching backward pass. A Cache may be reused across forward/backward
// passes of the same network via ForwardInto/BackwardInto, which makes the
// hot path allocation-free.
//
// A Cache is single-goroutine state: every pass through it scribbles over the
// same activation scratch, so it must never be shared between goroutines, not
// even for concurrent read-only forward passes. Concurrent users of one MLP
// each hold their own Cache (see NewCache) — the network's parameters may
// be shared read-only, the scratch may not.
type Cache struct {
	// acts[0] is the input; acts[i] is the (post-activation) output of
	// layer i-1. len(acts) == len(layers)+1.
	acts [][]float64
	// dacts mirrors acts and holds the backward pass's gradient w.r.t.
	// each activation. Allocated lazily so caches built before a backward
	// pass stay cheap.
	dacts [][]float64
}

// Output returns the network output stored in the cache.
func (c *Cache) Output() []float64 { return c.acts[len(c.acts)-1] }

// NewCache returns a reusable cache pre-sized for m, for use with
// ForwardInto/BackwardInto.
func (m *MLP) NewCache() *Cache {
	c := &Cache{acts: make([][]float64, len(m.layers)+1)}
	c.acts[0] = make([]float64, m.InputSize())
	for i, l := range m.layers {
		c.acts[i+1] = make([]float64, l.Out)
	}
	return c
}

// ensureDacts lazily sizes the backward scratch to match acts.
func (c *Cache) ensureDacts() {
	if c.dacts != nil {
		return
	}
	c.dacts = make([][]float64, len(c.acts))
	for i, a := range c.acts {
		c.dacts[i] = make([]float64, len(a))
	}
}

// ForwardInto runs the network on x, storing activations in c (which must
// come from m.NewCache or a previous m.Forward). It returns the output,
// aliased into the cache, and performs no allocations.
func (m *MLP) ForwardInto(c *Cache, x []float64) []float64 {
	if len(x) != m.InputSize() {
		panic(fmt.Sprintf("nn: Forward input size %d, want %d", len(x), m.InputSize()))
	}
	copy(c.acts[0], x)
	return m.forwardLayers(c.acts, 1)
}

// Forward runs the network on x and returns the output along with a cache for
// Backward. The returned slices are freshly allocated; hot paths should hold
// a cache from NewCache and use ForwardInto instead.
func (m *MLP) Forward(x []float64) ([]float64, *Cache) {
	c := m.NewCache()
	return m.ForwardInto(c, x), c
}

// Predict runs the network on x and returns only the output.
func (m *MLP) Predict(x []float64) []float64 {
	out, _ := m.Forward(x)
	return out
}

// PredictInto runs the network on x reusing c's scratch and returns the
// output aliased into the cache (valid until the next pass through c).
func (m *MLP) PredictInto(c *Cache, x []float64) []float64 {
	return m.ForwardInto(c, x)
}

// BackwardInto accumulates parameter gradients from one sample given the
// cache of its forward pass and dOut, the gradient of the loss w.r.t. the
// network output. Gradients accumulate across calls until ZeroGrad. It
// returns the gradient w.r.t. the network input, aliased into the cache's
// scratch (valid until the next backward pass through c), and allocates
// nothing once c's scratch is warm.
func (m *MLP) BackwardInto(c *Cache, dOut []float64) []float64 {
	if len(dOut) != m.OutputSize() {
		panic("nn: Backward gradient size mismatch")
	}
	c.ensureDacts()
	copy(c.dacts[len(m.layers)], dOut)
	m.backwardLayers(c.acts, c.dacts, 1)
	return c.dacts[0]
}

// Backward accumulates parameter gradients as BackwardInto does, returning a
// freshly allocated input-gradient slice that survives further passes.
func (m *MLP) Backward(c *Cache, dOut []float64) []float64 {
	return mathx.CopyOf(m.BackwardInto(c, dOut))
}

// Params returns aliased views of every parameter slice (weights and biases,
// layer by layer). Mutating them mutates the network. The outer slice is
// shared between calls and must not be modified.
func (m *MLP) Params() [][]float64 { return m.params }

// Grads returns aliased views of the accumulated gradient slices, in the same
// order as Params and under the same sharing rule.
func (m *MLP) Grads() [][]float64 { return m.grads }

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, g := range m.Grads() {
		mathx.Fill(g, 0)
	}
}

// ScaleGrads multiplies all accumulated gradients by alpha (used to average
// over a minibatch).
func (m *MLP) ScaleGrads(alpha float64) {
	for _, g := range m.Grads() {
		mathx.Scale(alpha, g)
	}
}

// GradNorm returns the global L2 norm of all accumulated gradients.
func (m *MLP) GradNorm() float64 {
	var s float64
	for _, g := range m.Grads() {
		for _, v := range g {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales gradients so their global L2 norm is at most maxNorm.
func (m *MLP) ClipGradNorm(maxNorm float64) {
	n := m.GradNorm()
	if n > maxNorm && n > 0 {
		m.ScaleGrads(maxNorm / n)
	}
}

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p)
	}
	return n
}

// Clone returns a deep copy of the network (parameters only; gradients are
// zeroed in the copy).
func (m *MLP) Clone() *MLP {
	layers := make([]*Dense, len(m.layers))
	for i, l := range m.layers {
		layers[i] = &Dense{
			In: l.In, Out: l.Out,
			W:     mathx.CopyOf(l.W),
			B:     mathx.CopyOf(l.B),
			gradW: make([]float64, len(l.W)),
			gradB: make([]float64, len(l.B)),
		}
	}
	c := &MLP{hidden: m.hidden}
	c.setLayers(layers)
	return c
}

// CopyParamsFrom overwrites m's parameters with src's. The architectures must
// match.
func (m *MLP) CopyParamsFrom(src *MLP) error {
	if len(m.layers) != len(src.layers) {
		return errors.New("nn: CopyParamsFrom architecture mismatch")
	}
	for i, l := range m.layers {
		sl := src.layers[i]
		if l.In != sl.In || l.Out != sl.Out {
			return errors.New("nn: CopyParamsFrom layer size mismatch")
		}
		copy(l.W, sl.W)
		copy(l.B, sl.B)
	}
	return nil
}
