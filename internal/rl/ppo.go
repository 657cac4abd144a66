package rl

import (
	"fmt"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/par"
)

// PPOConfig holds the hyperparameters of the PPO trainer. The defaults mirror
// the stable-baselines PPO2 defaults the paper reports using (with a constant
// learning rate, as the paper specifies).
type PPOConfig struct {
	RolloutSteps  int     // environment steps collected per iteration
	Epochs        int     // optimization epochs over each rollout
	MinibatchSize int     // samples per gradient step
	Gamma         float64 // discount factor
	Lambda        float64 // GAE lambda
	ClipEps       float64 // PPO clipping radius
	EntropyCoef   float64 // entropy bonus weight
	ValueCoef     float64 // value-loss weight
	LR            float64 // Adam learning rate (constant)
	MaxGradNorm   float64 // global gradient-norm clip
}

// DefaultPPOConfig returns stable-baselines-like default settings.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		RolloutSteps:  2048,
		Epochs:        4,
		MinibatchSize: 64,
		Gamma:         0.99,
		Lambda:        0.95,
		ClipEps:       0.2,
		EntropyCoef:   0.01,
		ValueCoef:     0.5,
		LR:            3e-4,
		MaxGradNorm:   0.5,
	}
}

func (c PPOConfig) validate() error {
	switch {
	case c.RolloutSteps <= 0:
		return fmt.Errorf("rl: RolloutSteps=%d", c.RolloutSteps)
	case c.Epochs <= 0:
		return fmt.Errorf("rl: Epochs=%d", c.Epochs)
	case c.MinibatchSize <= 0:
		return fmt.Errorf("rl: MinibatchSize=%d", c.MinibatchSize)
	case c.Gamma <= 0 || c.Gamma > 1:
		return fmt.Errorf("rl: Gamma=%v", c.Gamma)
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("rl: Lambda=%v", c.Lambda)
	case c.ClipEps <= 0:
		return fmt.Errorf("rl: ClipEps=%v", c.ClipEps)
	case c.LR <= 0:
		return fmt.Errorf("rl: LR=%v", c.LR)
	}
	return nil
}

// IterStats summarizes one PPO training iteration.
type IterStats struct {
	Iteration    int
	Steps        int     // env steps in the rollout
	Episodes     int     // episodes completed during the rollout
	MeanEpReward float64 // mean total reward of completed episodes
	MeanStepRew  float64 // mean per-step reward across the rollout
	PolicyLoss   float64
	ValueLoss    float64 // optimized value objective c_V·0.5·(V−ret)², incl. ValueCoef

	Entropy       float64
	ClipFraction  float64 // fraction of samples where the ratio was clipped
	ApproxKL      float64 // mean (logp_old - logp_new), a KL proxy
	GradStepCount int
}

// PPO trains a Policy and a value network against an Env with Proximal Policy
// Optimization.
type PPO struct {
	Policy Policy
	Value  *nn.MLP

	cfg    PPOConfig
	polOpt *nn.Adam
	valOpt *nn.Adam
	rng    *mathx.RNG
	buf    rolloutBuffer
	iter   int
	seq    *VecRunner // the one-lane runner behind Train; its lane is lane 0 of every VecRunner

	met *TrainMetrics // optional training telemetry (nil = off)

	// Update scratch. perms holds one permutation per epoch, drawn before
	// the update's halves fork; the minibatch rows are sized lazily.
	perms   [][]int
	uobs    []float64 // policy half: minibatch×obsDim observation rows
	uact    []float64 // policy half: minibatch×actDim action rows
	ulogp   []float64
	uent    []float64
	uwLogp  []float64
	vobs    []float64 // value half: minibatch×obsDim observation rows
	uvdOut  []float64
	vbcache *nn.BatchCache // value-net batched cache
}

// NewPPO builds a trainer. The policy must be a BatchPolicy (the update runs
// minibatches through BatchEval/BatchGrad) and the value network must map
// observations to a single scalar.
func NewPPO(policy Policy, value *nn.MLP, cfg PPOConfig, rng *mathx.RNG) (*PPO, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if _, ok := policy.(BatchPolicy); !ok {
		return nil, fmt.Errorf("rl: policy type %T does not implement BatchPolicy", policy)
	}
	if value.OutputSize() != 1 {
		return nil, fmt.Errorf("rl: value network output size %d, want 1", value.OutputSize())
	}
	p := &PPO{
		Policy: policy,
		Value:  value,
		cfg:    cfg,
		polOpt: nn.NewAdam(cfg.LR),
		valOpt: nn.NewAdam(cfg.LR),
		rng:    rng,
		perms:  make([][]int, cfg.Epochs),
	}
	p.seq = &VecRunner{ppo: p, lanes: []*Lane{newLane(policy, value, rng, &p.buf, cfg.Gamma, cfg.Lambda)}}
	return p, nil
}

// Config returns the trainer's configuration.
func (p *PPO) Config() PPOConfig { return p.cfg }

// sequential binds the trainer's own lane to env: the sequential trainer is
// the one-lane runner.
func (p *PPO) sequential(env Env) *VecRunner {
	p.seq.lanes[0].env, p.seq.lanes[0].steps = env, p.cfg.RolloutSteps
	return p.seq
}

// Train collects iterations rollouts from env, performing the PPO update
// after each, and returns their statistics. A panic inside the environment
// or policy propagates (as the *par.PanicError the lane's fan-out contained
// it in).
func (p *PPO) Train(env Env, iterations int) []IterStats {
	out, err := p.sequential(env).Train(iterations)
	if err != nil {
		panic(err)
	}
	return out
}

// applyRollout is the one iteration tail, shared by every lane transport:
// the trainer buffer holds the lanes' rollouts (GAE applied) merged in lane
// order and cs their summed totals; normalize advantages over the merged
// buffer, update, reset, observe.
func (p *PPO) applyRollout(cs collectStats) IterStats {
	stats := IterStats{Iteration: p.iter}
	p.iter++
	var t0 time.Time
	if p.met != nil {
		t0 = time.Now()
	}
	// The zero-step guard is reachable when a run splits fewer rollout
	// steps than lanes.
	stats.Steps = p.buf.len()
	stats.Episodes = cs.episodes
	if stats.Steps > 0 {
		stats.MeanStepRew = cs.rewardSum / float64(stats.Steps)
	}
	stats.MeanEpReward = cs.epRewardSum
	if cs.episodes > 0 {
		stats.MeanEpReward = cs.epRewardSum / float64(cs.episodes)
	}
	p.buf.normalizeAdvantages()
	p.update(&stats)
	p.buf.reset()
	if p.met != nil {
		p.met.Update.Observe(time.Since(t0))
		p.met.Iterations.Inc()
	}
	return stats
}

// RNGState exposes the trainer RNG, which is lane 0's stream: a remote
// lane 0's collect request carries it out, and ApplyRemoteRollouts adopts
// the post-collect state back.
func (p *PPO) RNGState() mathx.RNGState { return p.rng.State() }

// ApplyRemoteRollouts performs the trainer half of an iteration whose lanes
// ran in other processes: lane batches merged in lane order, lane 0's
// post-collect RNG adopted as the trainer RNG (the counterpart of the
// in-process lane 0 sharing p.rng), then the update. batches must hold
// exactly one batch per lane, in lane order, with the row widths of the
// trainer's networks. On a validation error nothing is imported and the
// iteration counter is not advanced.
func (p *PPO) ApplyRemoteRollouts(batches []*RolloutBatch) (IterStats, error) {
	stats := IterStats{Iteration: p.iter}
	if len(batches) == 0 {
		return stats, fmt.Errorf("rl: ApplyRemoteRollouts with no batches")
	}
	actDim, rows := 0, 0
	for i, b := range batches {
		if b == nil {
			return stats, fmt.Errorf("rl: ApplyRemoteRollouts missing batch for lane %d", i)
		}
		if b.Lane != i {
			return stats, fmt.Errorf("rl: ApplyRemoteRollouts batch %d is for lane %d", i, b.Lane)
		}
		if err := b.Validate(); err != nil {
			return stats, err
		}
		if b.Steps == 0 {
			continue
		}
		if actDim == 0 {
			actDim = b.ActDim
		}
		if b.ObsDim != p.Value.InputSize() || b.ActDim != actDim {
			return stats, fmt.Errorf("rl: batch lane %d has dims %dx%d, trainer expects %dx%d", i, b.ObsDim, b.ActDim, p.Value.InputSize(), actDim)
		}
		rows += b.Steps
	}
	p.buf.reset()
	p.buf.ensureCap(rows, p.Value.InputSize(), actDim) // once, for the whole round
	var cs collectStats
	for _, b := range batches {
		importBatch(&p.buf, b)
		cs.add(collectStats{episodes: b.Episodes, epRewardSum: b.EpRewardSum, rewardSum: b.RewardSum})
	}
	p.rng.SetState(batches[0].End.RNG)
	return p.applyRollout(cs), nil
}

// ensureUpdateScratch sizes the minibatch staging rows and the value net's
// batched cache for m samples. The policy half stages its rows in
// uobs/uact, the value half in vobs, so the halves write nothing in common.
func (p *PPO) ensureUpdateScratch(m, obsDim, actDim int) {
	if len(p.ulogp) >= m && len(p.uobs) >= m*obsDim && len(p.uact) >= m*actDim {
		return
	}
	p.uobs = make([]float64, m*obsDim)
	p.uact = make([]float64, m*actDim)
	p.ulogp = make([]float64, m)
	p.uent = make([]float64, m)
	p.uwLogp = make([]float64, m)
	p.vobs = make([]float64, m*obsDim)
	p.uvdOut = make([]float64, m)
	if p.vbcache == nil || p.vbcache.Capacity() < m {
		p.vbcache = p.Value.NewBatchCache(m)
	}
}

// policySums are the policy half's running sums over an update.
type policySums struct {
	loss, entropy, kl float64
	clipped, samples  int
	steps             int
}

// update runs the PPO epochs over the buffer. Once the epoch permutations
// are drawn, the policy and the value net share no parameter, gradient,
// optimizer or random draw, so the two halves run side by side through
// par.Run: the policy half on the caller's goroutine, the value half on a
// second one. Each half performs its net's float operations in the
// sequential order and sums its own statistics, so parameters and
// IterStats are bitwise the same at any GOMAXPROCS. A panic in either half
// re-panics here, after both have returned, as the *par.PanicError par.Run
// contained it in.
func (p *PPO) update(stats *IterStats) {
	n := p.buf.len()
	if n == 0 {
		return
	}
	p.ensureUpdateScratch(min(p.cfg.MinibatchSize, n), len(p.buf.steps[0].obs), len(p.buf.steps[0].action))
	for e := range p.perms {
		p.perms[e] = p.rng.Perm(p.perms[e], n)
	}
	var (
		ps        policySums
		valueLoss float64
	)
	if err := par.Run(2, func(w int) error {
		if w == 0 {
			ps = p.updatePolicy()
		} else {
			valueLoss = p.updateValue()
		}
		return nil
	}); err != nil {
		panic(err)
	}
	stats.GradStepCount += ps.steps
	if ps.samples > 0 {
		stats.PolicyLoss = ps.loss / float64(ps.samples)
		stats.ValueLoss = valueLoss / float64(ps.samples)
		stats.Entropy = ps.entropy / float64(ps.samples)
		stats.ClipFraction = float64(ps.clipped) / float64(ps.samples)
		stats.ApproxKL = ps.kl / float64(ps.samples)
	}
}

// minibatches calls do with each minibatch of every epoch's permutation, in
// order.
func (p *PPO) minibatches(do func(batch []int)) {
	for _, perm := range p.perms {
		for start := 0; start < len(perm); start += p.cfg.MinibatchSize {
			do(perm[start:min(start+p.cfg.MinibatchSize, len(perm))])
		}
	}
}

// updatePolicy is the policy half of update: the clipped surrogate with the
// entropy bonus, one Adam step per minibatch.
func (p *PPO) updatePolicy() policySums {
	bp := p.Policy.(BatchPolicy) // checked by NewPPO
	obsDim := len(p.buf.steps[0].obs)
	actDim := len(p.buf.steps[0].action)
	var ps policySums
	p.minibatches(func(batch []int) {
		p.Policy.ZeroGrad()
		// One forward pass per sample, shared between the log-prob
		// evaluation and the gradient accumulation, batched through
		// preallocated row-major caches.
		m := len(batch)
		for k, idx := range batch {
			s := &p.buf.steps[idx]
			copy(p.uobs[k*obsDim:(k+1)*obsDim], s.obs)
			copy(p.uact[k*actDim:(k+1)*actDim], s.action)
		}
		bp.BatchEval(p.uobs, p.uact, m, p.ulogp, p.uent)
		for k, idx := range batch {
			s := &p.buf.steps[idx]
			// Policy term. ratio = exp(logp_new - logp_old).
			logpNew := p.ulogp[k]
			ratio := mathx.Exp(logpNew - s.logp)
			adv := s.advantage
			// L_clip = min(r·A, clip(r)·A); we accumulate the
			// gradient of −L_clip. d(r·A)/dlogp = r·A, so the
			// logp weight is −r·A when the unclipped branch is
			// active and 0 when clipped.
			clipActive := false
			if adv >= 0 && ratio > 1+p.cfg.ClipEps {
				clipActive = true
			}
			if adv < 0 && ratio < 1-p.cfg.ClipEps {
				clipActive = true
			}
			p.uwLogp[k] = 0
			if !clipActive {
				p.uwLogp[k] = -ratio * adv
			}
			surr := ratio * adv
			clippedRatio := mathx.Clamp(ratio, 1-p.cfg.ClipEps, 1+p.cfg.ClipEps)
			if clippedRatio*adv < surr {
				surr = clippedRatio * adv
			}
			ps.loss += -surr
			ps.entropy += p.uent[k]
			ps.kl += s.logp - logpNew
			if clipActive {
				ps.clipped++
			}
			ps.samples++
		}
		bp.BatchGrad(p.uwLogp[:m], -p.cfg.EntropyCoef)
		p.Policy.ScaleGrads(1.0 / float64(m))
		if p.cfg.MaxGradNorm > 0 {
			p.Policy.ClipGradNorm(p.cfg.MaxGradNorm)
		}
		p.polOpt.Step(p.Policy.Params(), p.Policy.Grads())
		ps.steps++
	})
	return ps
}

// updateValue is the value half of update: c_V·0.5·(V(s) − ret)², one
// Adam step per minibatch. It returns the summed loss, which carries the
// same ValueCoef scaling as the gradient so the stat is the quantity the
// optimizer actually descends.
func (p *PPO) updateValue() float64 {
	obsDim := len(p.buf.steps[0].obs)
	var sum float64
	p.minibatches(func(batch []int) {
		p.Value.ZeroGrad()
		m := len(batch)
		for k, idx := range batch {
			copy(p.vobs[k*obsDim:(k+1)*obsDim], p.buf.steps[idx].obs)
		}
		vs := p.Value.ForwardBatch(p.vbcache, p.vobs, m)
		for k, idx := range batch {
			diff := vs[k] - p.buf.steps[idx].ret
			p.uvdOut[k] = p.cfg.ValueCoef * diff
			sum += p.cfg.ValueCoef * 0.5 * diff * diff
		}
		p.Value.BackwardBatch(p.vbcache, p.uvdOut[:m])
		p.Value.ScaleGrads(1.0 / float64(m))
		if p.cfg.MaxGradNorm > 0 {
			p.Value.ClipGradNorm(p.cfg.MaxGradNorm)
		}
		p.valOpt.Step(p.Value.Params(), p.Value.Grads())
	})
	return sum
}
