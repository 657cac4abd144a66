package rl

import (
	"encoding/json"
	"fmt"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// Policy is a trainable stochastic policy. The Backward method accumulates
// the gradient of (wLogp·logπ(a|s) + wEnt·H(π(·|s))) with respect to the
// policy parameters, treating the expression as a loss term — callers that
// want to *maximize* log-probability or entropy pass negative weights.
//
// Policies keep internal scratch buffers so Sample and Mode allocate
// nothing: the action slice either returns is reused by the next Sample or
// Mode call and must be copied by callers that need it to survive. A Policy
// is therefore not safe for concurrent use; parallel rollout lanes each hold
// their own clone (see ClonePolicy).
type Policy interface {
	// Sample draws an action and returns it with its log-probability. The
	// returned action aliases internal scratch, valid until the next Sample
	// or Mode.
	Sample(rng *mathx.RNG, obs []float64) (action []float64, logp float64)
	// Mode returns the deterministic (highest-probability) action, in the
	// same scratch as Sample's, valid until the next Sample or Mode.
	Mode(obs []float64) []float64
	// LogProb returns log π(action|obs) under the current parameters.
	LogProb(obs, action []float64) float64
	// Entropy returns the policy entropy at obs.
	Entropy(obs []float64) float64
	// Backward accumulates parameter gradients as described above and
	// returns the current logp and entropy for bookkeeping.
	Backward(obs, action []float64, wLogp, wEnt float64) (logp, entropy float64)

	// Parameter plumbing for the optimizer.
	Params() [][]float64
	Grads() [][]float64
	ZeroGrad()
	ScaleGrads(alpha float64)
	ClipGradNorm(maxNorm float64)
}

// BatchPolicy is implemented by policies that support fused minibatch
// evaluation: one forward pass per sample shared between the log-prob
// evaluation and the gradient accumulation, with obs/action rows stored
// row-major. BatchGrad must be called directly after BatchEval on the same
// batch (it reuses the cached forward activations). The batched path is
// bit-for-bit identical to the equivalent sequence of per-sample
// LogProb+Backward calls.
type BatchPolicy interface {
	Policy
	// BatchEval evaluates n (obs, action) rows, writing log-probabilities
	// into logp[:n] and entropies into ent[:n].
	BatchEval(obs, actions []float64, n int, logp, ent []float64)
	// BatchGrad accumulates, for each row r of the last BatchEval,
	// the gradient of wLogp[r]·logπ(a_r|s_r) + wEnt·H(π(·|s_r)).
	BatchGrad(wLogp []float64, wEnt float64)
}

// ClonePolicy returns an independent deep copy of p (parameters and
// hyperparameters; gradients zeroed). Policies outside this package can opt
// in by implementing interface{ ClonePolicy() Policy }.
func ClonePolicy(p Policy) (Policy, error) {
	switch t := p.(type) {
	case *CategoricalPolicy:
		return t.Clone(), nil
	case *GaussianPolicy:
		return t.Clone(), nil
	}
	if c, ok := p.(interface{ ClonePolicy() Policy }); ok {
		return c.ClonePolicy(), nil
	}
	return nil, fmt.Errorf("rl: policy type %T does not support cloning", p)
}

// CategoricalPolicy is a softmax policy over N discrete actions; the network
// maps observations to N logits.
type CategoricalPolicy struct {
	net *nn.MLP
	n   int

	// Single-sample scratch (Sample/LogProb/Entropy hot path).
	cache    *nn.Cache
	probsBuf []float64
	actBuf   []float64

	// Batched-update scratch, sized lazily to the largest minibatch seen.
	bcache *nn.BatchCache
	bprobs []float64 // batch×n softmax probabilities
	blogq  []float64 // batch×n log of each positive probability
	bacts  []int     // batch action indices
	bents  []float64 // batch entropies
	bdlog  []float64 // batch×n logit gradients
}

// NewCategoricalPolicy builds a categorical policy from a network whose
// output size is the number of actions.
func NewCategoricalPolicy(net *nn.MLP) *CategoricalPolicy {
	return &CategoricalPolicy{
		net:      net,
		n:        net.OutputSize(),
		cache:    net.NewCache(),
		probsBuf: make([]float64, net.OutputSize()),
		actBuf:   make([]float64, 1),
	}
}

// Net returns the underlying network (e.g. for serialization).
func (p *CategoricalPolicy) Net() *nn.MLP { return p.net }

// Clone returns an independent copy with its own network and scratch.
func (p *CategoricalPolicy) Clone() *CategoricalPolicy {
	return NewCategoricalPolicy(p.net.Clone())
}

// policySnapshot is the one JSON encoding of a policy: trainer checkpoints
// and every model file that carries a policy write it through the
// policies' MarshalJSON. Bounds are pointers so that presence is explicit:
// nil means unbounded (±Inf, which JSON cannot represent), and a present
// value — including zero — is authoritative on load.
type policySnapshot struct {
	Kind      string    `json:"kind"` // "categorical" or "gaussian"
	Net       *nn.MLP   `json:"net"`
	LogStd    []float64 `json:"log_std,omitempty"`
	MinLogStd *float64  `json:"min_log_std,omitempty"`
	MaxLogStd *float64  `json:"max_log_std,omitempty"`
}

// decodePolicy parses a policySnapshot and checks its kind.
func decodePolicy(data []byte, kind string) (*policySnapshot, error) {
	var s policySnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("rl: %s policy: %w", kind, err)
	}
	if s.Kind != kind {
		return nil, fmt.Errorf("rl: policy kind %q, want %s", s.Kind, kind)
	}
	if s.Net == nil {
		return nil, fmt.Errorf("rl: %s policy has no net", kind)
	}
	return &s, nil
}

// MarshalJSON encodes the policy as {"kind":"categorical","net":…}.
func (p *CategoricalPolicy) MarshalJSON() ([]byte, error) {
	return json.Marshal(policySnapshot{Kind: "categorical", Net: p.net})
}

// UnmarshalJSON decodes a policy written by MarshalJSON, replacing p.
func (p *CategoricalPolicy) UnmarshalJSON(data []byte) error {
	s, err := decodePolicy(data, "categorical")
	if err != nil {
		return err
	}
	*p = *NewCategoricalPolicy(s.Net)
	return nil
}

// probs runs the network and softmaxes into internal scratch.
func (p *CategoricalPolicy) probs(obs []float64) []float64 {
	logits := p.net.ForwardInto(p.cache, obs)
	return mathx.Softmax(logits, p.probsBuf)
}

// Sample draws an action index proportionally to the softmax probabilities.
func (p *CategoricalPolicy) Sample(rng *mathx.RNG, obs []float64) ([]float64, float64) {
	probs := p.probs(obs)
	a := rng.Choice(probs)
	p.actBuf[0] = float64(a)
	return p.actBuf, math.Log(probs[a] + 1e-12)
}

// Mode returns the argmax action.
func (p *CategoricalPolicy) Mode(obs []float64) []float64 {
	p.actBuf[0] = float64(mathx.ArgMax(p.net.ForwardInto(p.cache, obs)))
	return p.actBuf
}

// LogProb returns the log-probability of the given action index.
func (p *CategoricalPolicy) LogProb(obs, action []float64) float64 {
	probs := p.probs(obs)
	return math.Log(probs[int(action[0])] + 1e-12)
}

// Entropy returns the entropy of the action distribution at obs.
func (p *CategoricalPolicy) Entropy(obs []float64) float64 {
	probs := p.probs(obs)
	var h float64
	for _, q := range probs {
		if q > 0 {
			h -= q * math.Log(q)
		}
	}
	return h
}

// Backward implements Policy.
func (p *CategoricalPolicy) Backward(obs, action []float64, wLogp, wEnt float64) (float64, float64) {
	cache := p.net.NewCache()
	logits := p.net.ForwardInto(cache, obs)
	probs := make([]float64, len(logits))
	mathx.Softmax(logits, probs)
	a := int(action[0])
	logp := math.Log(probs[a] + 1e-12)
	var h float64
	for _, q := range probs {
		if q > 0 {
			h -= q * math.Log(q)
		}
	}

	// d logp / d logit_j = 1{j==a} - p_j
	// d H / d logit_j    = -p_j (log p_j + H)
	dLogits := make([]float64, len(logits))
	for j, q := range probs {
		var dLogp float64
		if j == a {
			dLogp = 1 - q
		} else {
			dLogp = -q
		}
		dEnt := 0.0
		if q > 0 {
			dEnt = -q * (math.Log(q) + h)
		}
		dLogits[j] = wLogp*dLogp + wEnt*dEnt
	}
	p.net.BackwardInto(cache, dLogits)
	return logp, h
}

// ensureBatch sizes the batched-update scratch for at least n samples.
func (p *CategoricalPolicy) ensureBatch(n int) {
	if p.bcache != nil && p.bcache.Capacity() >= n {
		return
	}
	p.bcache = p.net.NewBatchCache(n)
	p.bprobs = make([]float64, n*p.n)
	p.blogq = make([]float64, n*p.n)
	p.bacts = make([]int, n)
	p.bents = make([]float64, n)
	p.bdlog = make([]float64, n*p.n)
}

// BatchEval implements BatchPolicy.
func (p *CategoricalPolicy) BatchEval(obs, actions []float64, n int, logp, ent []float64) {
	p.ensureBatch(n)
	logits := p.net.ForwardBatch(p.bcache, obs, n)
	for r := 0; r < n; r++ {
		probs := mathx.Softmax(logits[r*p.n:(r+1)*p.n], p.bprobs[r*p.n:(r+1)*p.n])
		logq := p.blogq[r*p.n : (r+1)*p.n]
		a := int(actions[r])
		p.bacts[r] = a
		logp[r] = math.Log(probs[a] + 1e-12)
		var h float64
		for j, q := range probs {
			if q > 0 {
				logq[j] = math.Log(q)
				h -= q * logq[j]
			}
		}
		p.bents[r] = h
		ent[r] = h
	}
}

// BatchGrad implements BatchPolicy.
func (p *CategoricalPolicy) BatchGrad(wLogp []float64, wEnt float64) {
	n := len(wLogp)
	for r := 0; r < n; r++ {
		probs := p.bprobs[r*p.n : (r+1)*p.n]
		logq := p.blogq[r*p.n : (r+1)*p.n]
		a := p.bacts[r]
		h := p.bents[r]
		dLogits := p.bdlog[r*p.n : (r+1)*p.n]
		for j, q := range probs {
			var dLogp float64
			if j == a {
				dLogp = 1 - q
			} else {
				dLogp = -q
			}
			dEnt := 0.0
			if q > 0 {
				dEnt = -q * (logq[j] + h)
			}
			dLogits[j] = wLogp[r]*dLogp + wEnt*dEnt
		}
	}
	p.net.BackwardBatch(p.bcache, p.bdlog[:n*p.n])
}

// Params implements Policy.
func (p *CategoricalPolicy) Params() [][]float64 { return p.net.Params() }

// Grads implements Policy.
func (p *CategoricalPolicy) Grads() [][]float64 { return p.net.Grads() }

// ZeroGrad implements Policy.
func (p *CategoricalPolicy) ZeroGrad() { p.net.ZeroGrad() }

// ScaleGrads implements Policy.
func (p *CategoricalPolicy) ScaleGrads(a float64) { p.net.ScaleGrads(a) }

// ClipGradNorm implements Policy.
func (p *CategoricalPolicy) ClipGradNorm(m float64) { p.net.ClipGradNorm(m) }

// GaussianPolicy is a diagonal-Gaussian policy for continuous actions: the
// network maps observations to the mean, and a state-independent learned
// log-standard-deviation vector controls exploration noise, matching the
// stable-baselines PPO default the paper uses.
type GaussianPolicy struct {
	net     *nn.MLP
	logStd  []float64
	gLogStd []float64
	dim     int

	// MinLogStd/MaxLogStd bound the *effective* log-standard-deviation
	// used for sampling and density evaluation. PPO's entropy/objective
	// gradients will happily inflate exploration noise without bound when
	// noise itself is rewarded (an adversary can defeat a protocol with
	// pure jitter); capping the effective std forces the policy mean to
	// learn structure instead. Defaults are ±∞ (no bound).
	MinLogStd float64
	MaxLogStd float64

	// Single-sample scratch.
	cache  *nn.Cache
	actBuf []float64

	// Batched-update scratch.
	bcache *nn.BatchCache
	bzs    []float64 // batch×dim standardized residuals
	bdmean []float64 // batch×dim mean gradients
	bls    []float64 // per dim: effective log-std, constant within a call
	bstd   []float64 // per dim: exp of bls

	// Optimizer views (Params/Grads): the net's slices with logStd and
	// gLogStd appended, built once per net layout.
	params, grads [][]float64
}

const log2Pi = 1.8378770664093453 // log(2π)

// NewGaussianPolicy builds a Gaussian policy from a network whose output size
// is the action dimension. initLogStd sets the initial exploration scale
// (stable-baselines defaults to 0, i.e. unit standard deviation).
func NewGaussianPolicy(net *nn.MLP, initLogStd float64) *GaussianPolicy {
	dim := net.OutputSize()
	p := &GaussianPolicy{
		net:       net,
		logStd:    make([]float64, dim),
		gLogStd:   make([]float64, dim),
		dim:       dim,
		MinLogStd: math.Inf(-1),
		MaxLogStd: math.Inf(1),
		cache:     net.NewCache(),
		actBuf:    make([]float64, dim),
		bls:       make([]float64, dim),
		bstd:      make([]float64, dim),
	}
	mathx.Fill(p.logStd, initLogStd)
	return p
}

// effLogStd returns the clamped log-std for dimension i.
func (p *GaussianPolicy) effLogStd(i int) float64 {
	return mathx.Clamp(p.logStd[i], p.MinLogStd, p.MaxLogStd)
}

// Net returns the underlying mean network.
func (p *GaussianPolicy) Net() *nn.MLP { return p.net }

// LogStd returns the learned log-standard-deviation vector (aliased).
func (p *GaussianPolicy) LogStd() []float64 { return p.logStd }

// Dim returns the action dimensionality.
func (p *GaussianPolicy) Dim() int { return p.dim }

// Clone returns an independent copy with its own network, log-std vector,
// bounds, and scratch.
func (p *GaussianPolicy) Clone() *GaussianPolicy {
	c := NewGaussianPolicy(p.net.Clone(), 0)
	copy(c.logStd, p.logStd)
	c.MinLogStd = p.MinLogStd
	c.MaxLogStd = p.MaxLogStd
	return c
}

// MarshalJSON encodes the policy as {"kind":"gaussian","net":…,"log_std":…}
// plus whichever log-std bounds are finite.
func (p *GaussianPolicy) MarshalJSON() ([]byte, error) {
	s := policySnapshot{Kind: "gaussian", Net: p.net, LogStd: p.logStd}
	if !math.IsInf(p.MinLogStd, -1) {
		s.MinLogStd = &p.MinLogStd
	}
	if !math.IsInf(p.MaxLogStd, 1) {
		s.MaxLogStd = &p.MaxLogStd
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a policy written by MarshalJSON, replacing p. The
// log-std vector must match the net's output size: a mismatched file would
// otherwise silently truncate or zero-fill the exploration scale.
func (p *GaussianPolicy) UnmarshalJSON(data []byte) error {
	s, err := decodePolicy(data, "gaussian")
	if err != nil {
		return err
	}
	if len(s.LogStd) != s.Net.OutputSize() {
		return fmt.Errorf("rl: gaussian policy log_std has %d entries, want %d (the net's output size)", len(s.LogStd), s.Net.OutputSize())
	}
	q := NewGaussianPolicy(s.Net, 0)
	copy(q.logStd, s.LogStd)
	if s.MinLogStd != nil {
		q.MinLogStd = *s.MinLogStd
	}
	if s.MaxLogStd != nil {
		q.MaxLogStd = *s.MaxLogStd
	}
	*p = *q
	return nil
}

// Sample draws an action from N(mean(obs), diag(exp(logStd))²).
func (p *GaussianPolicy) Sample(rng *mathx.RNG, obs []float64) ([]float64, float64) {
	mean := p.net.ForwardInto(p.cache, obs)
	action := p.actBuf
	logp := 0.0
	for i := 0; i < p.dim; i++ {
		ls := p.effLogStd(i)
		std := mathx.Exp(ls)
		action[i] = mean[i] + std*rng.Norm()
		z := (action[i] - mean[i]) / std
		logp += -0.5*z*z - ls - 0.5*log2Pi
	}
	return action, logp
}

// Mode returns the distribution mean (the noise-free action the paper plots
// in Figure 6).
func (p *GaussianPolicy) Mode(obs []float64) []float64 {
	copy(p.actBuf, p.net.ForwardInto(p.cache, obs))
	return p.actBuf
}

// LogProb returns the log-density of action under the current parameters.
func (p *GaussianPolicy) LogProb(obs, action []float64) float64 {
	mean := p.net.ForwardInto(p.cache, obs)
	logp := 0.0
	for i := 0; i < p.dim; i++ {
		ls := p.effLogStd(i)
		std := mathx.Exp(ls)
		z := (action[i] - mean[i]) / std
		logp += -0.5*z*z - ls - 0.5*log2Pi
	}
	return logp
}

// Entropy returns the (state-independent) differential entropy.
func (p *GaussianPolicy) Entropy(_ []float64) float64 {
	h := 0.0
	for i := 0; i < p.dim; i++ {
		h += p.effLogStd(i) + 0.5*(log2Pi+1)
	}
	return h
}

// Backward implements Policy.
func (p *GaussianPolicy) Backward(obs, action []float64, wLogp, wEnt float64) (float64, float64) {
	cache := p.net.NewCache()
	mean := p.net.ForwardInto(cache, obs)
	logp := 0.0
	dMean := make([]float64, p.dim)
	for i := 0; i < p.dim; i++ {
		ls := p.effLogStd(i)
		std := mathx.Exp(ls)
		z := (action[i] - mean[i]) / std
		logp += -0.5*z*z - ls - 0.5*log2Pi

		// d logp / d mean_i = z/std ; d logp / d logStd_i = z² − 1.
		// At an active clamp the effective std does not respond to the
		// parameter, so its gradient is zero there.
		dMean[i] = wLogp * z / std
		if p.logStd[i] > p.MinLogStd && p.logStd[i] < p.MaxLogStd {
			p.gLogStd[i] += wLogp*(z*z-1) + wEnt
		}
	}
	p.net.BackwardInto(cache, dMean)
	return logp, p.Entropy(obs)
}

// ensureBatch sizes the batched-update scratch for at least n samples.
func (p *GaussianPolicy) ensureBatch(n int) {
	if p.bcache != nil && p.bcache.Capacity() >= n {
		return
	}
	p.bcache = p.net.NewBatchCache(n)
	p.bzs = make([]float64, n*p.dim)
	p.bdmean = make([]float64, n*p.dim)
}

// batchStd fills bls and bstd, the per-dimension values every row of a
// batched call shares, from the current log-std.
func (p *GaussianPolicy) batchStd() {
	for i := 0; i < p.dim; i++ {
		p.bls[i] = p.effLogStd(i)
		p.bstd[i] = mathx.Exp(p.bls[i])
	}
}

// BatchEval implements BatchPolicy.
func (p *GaussianPolicy) BatchEval(obs, actions []float64, n int, logp, ent []float64) {
	p.ensureBatch(n)
	means := p.net.ForwardBatch(p.bcache, obs, n)
	p.batchStd()
	h := p.Entropy(nil)
	for r := 0; r < n; r++ {
		lp := 0.0
		for i := 0; i < p.dim; i++ {
			z := (actions[r*p.dim+i] - means[r*p.dim+i]) / p.bstd[i]
			p.bzs[r*p.dim+i] = z
			lp += -0.5*z*z - p.bls[i] - 0.5*log2Pi
		}
		logp[r] = lp
		ent[r] = h
	}
}

// BatchGrad implements BatchPolicy.
func (p *GaussianPolicy) BatchGrad(wLogp []float64, wEnt float64) {
	n := len(wLogp)
	p.batchStd()
	for r := 0; r < n; r++ {
		for i := 0; i < p.dim; i++ {
			std := p.bstd[i]
			z := p.bzs[r*p.dim+i]
			p.bdmean[r*p.dim+i] = wLogp[r] * z / std
			if p.logStd[i] > p.MinLogStd && p.logStd[i] < p.MaxLogStd {
				p.gLogStd[i] += wLogp[r]*(z*z-1) + wEnt
			}
		}
	}
	p.net.BackwardBatch(p.bcache, p.bdmean[:n*p.dim])
}

// Params implements Policy: the network parameters plus the logStd vector.
// The net's Params runs on every call, because that is what tells the net
// its weights may be written. The returned slice is capacity-capped, so a
// caller's append copies it.
func (p *GaussianPolicy) Params() [][]float64 {
	return withTail(&p.params, p.net.Params(), p.logStd)
}

// Grads implements Policy, in Params' order and under its capacity rule.
func (p *GaussianPolicy) Grads() [][]float64 {
	return withTail(&p.grads, p.net.Grads(), p.gLogStd)
}

// withTail returns s followed by tail, reusing *view while it holds exactly
// those slices and rebuilding it otherwise (a net whose layers were
// replaced). The result's capacity is its length.
func withTail(view *[][]float64, s [][]float64, tail []float64) [][]float64 {
	v := *view
	same := len(v) == len(s)+1 && sameSlice(v[len(s)], tail)
	for i := 0; same && i < len(s); i++ {
		same = sameSlice(v[i], s[i])
	}
	if !same {
		v = append(append(make([][]float64, 0, len(s)+1), s...), tail)
		*view = v
	}
	return v
}

// sameSlice reports whether a and b are the same view of the same memory.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ZeroGrad implements Policy.
func (p *GaussianPolicy) ZeroGrad() {
	p.net.ZeroGrad()
	clear(p.gLogStd)
}

// ScaleGrads implements Policy.
func (p *GaussianPolicy) ScaleGrads(a float64) {
	p.net.ScaleGrads(a)
	mathx.Scale(a, p.gLogStd)
}

// ClipGradNorm implements Policy over the joint parameter vector.
func (p *GaussianPolicy) ClipGradNorm(maxNorm float64) {
	var s float64
	for _, g := range p.Grads() {
		for _, v := range g {
			s += v * v
		}
	}
	n := math.Sqrt(s)
	if n > maxNorm && n > 0 {
		p.ScaleGrads(maxNorm / n)
	}
}
