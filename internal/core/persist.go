package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"

	"advnet/internal/nn"
	"advnet/internal/rl"
)

// The model-file kinds this package writes, each an rl envelope (see
// rl.WriteEnvelope): the adversaries' payload is {cfg, policy}, the policy
// in rl's one policy encoding.
const (
	abrAdversaryKind       = "abr-adversary"
	ccAdversaryKind        = "cc-adversary"
	abrRegressionSuiteKind = "abr-regression-suite"
)

// loadModel reads the envelope of the given kind at path and decodes its
// payload into v.
func loadModel(path, kind string, v any) error {
	payload, _, err := rl.ReadEnvelope(path, kind)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	return nil
}

// Save writes the adversary to path as an "abr-adversary" envelope.
func (a *ABRAdversary) Save(path string) error {
	return rl.WriteEnvelope(path, abrAdversaryKind, a)
}

// LoadABRAdversary reads an adversary written by Save, refusing one that
// ABREnv could not run.
func LoadABRAdversary(path string) (*ABRAdversary, error) {
	a := new(ABRAdversary)
	if err := loadModel(path, abrAdversaryKind, a); err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return a, nil
}

// validate checks the sizes ABREnv relies on: one bandwidth output, a
// positive history and window, a positive bandwidth range, and an input of
// HistoryLen·(6+L) features for a ladder of L ≥ 1 levels.
func (a *ABRAdversary) validate() error {
	c := a.Cfg
	if a.Policy == nil {
		return errors.New("no policy")
	}
	if d := a.Policy.Dim(); d != 1 {
		return fmt.Errorf("policy has %d outputs, want 1", d)
	}
	if c.HistoryLen <= 0 || c.Window <= 0 {
		return fmt.Errorf("history %d and window %d must be positive", c.HistoryLen, c.Window)
	}
	if !(0 < c.BandwidthLo && c.BandwidthLo <= c.BandwidthHi) {
		return fmt.Errorf("bandwidth range [%v, %v] is not 0 < lo ≤ hi", c.BandwidthLo, c.BandwidthHi)
	}
	if in := a.Policy.Net().InputSize(); in%c.HistoryLen != 0 || c.perStepFeatures(1) > in/c.HistoryLen {
		return fmt.Errorf("policy input %d is not HistoryLen·(6+L) for HistoryLen %d and a ladder of L ≥ 1 levels", in, c.HistoryLen)
	}
	return nil
}

// Save writes the adversary to path as a "cc-adversary" envelope.
func (a *CCAdversary) Save(path string) error {
	return rl.WriteEnvelope(path, ccAdversaryKind, a)
}

// LoadCCAdversary reads an adversary written by Save, refusing one that
// CCEnv could not run.
func LoadCCAdversary(path string) (*CCAdversary, error) {
	a := new(CCAdversary)
	if err := loadModel(path, ccAdversaryKind, a); err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return a, nil
}

// The largest CC adversary episode a file may ask for: ten times Table 1's
// episode of 1000 steps of 30 ms (30 s) at ≤ 24 Mbps. At the bound an
// episode sends at most 240 Mbps × 300 s / 12 000 bits ≈ 6·10⁶ packets and
// keeps 10 000 step records.
const (
	maxCCEpisodeSteps  = 10 * 1000
	maxCCEpisodeS      = 10 * 30.0
	maxCCBandwidthMbps = 10 * 24.0
)

// validate checks what CCEnv relies on: a config it can run (see
// CCAdversaryConfig.validate) and a tanh net from its observation to its
// action. A tanh net's mean is never NaN on the all-zero first observation,
// so a valid adversary's first step cannot panic.
func (a *CCAdversary) validate() error {
	if err := a.Cfg.validate(); err != nil {
		return err
	}
	if a.Policy == nil {
		return errors.New("no policy")
	}
	var env CCEnv
	net := a.Policy.Net()
	if net.InputSize() != env.ObservationSize() || a.Policy.Dim() != env.ActionSpec().Dim {
		return fmt.Errorf("policy maps %d inputs to %d outputs, want %d to %d", net.InputSize(), a.Policy.Dim(), env.ObservationSize(), env.ActionSpec().Dim)
	}
	if net.Hidden() != nn.Tanh {
		return fmt.Errorf("policy hidden activation %v, want tanh", net.Hidden())
	}
	return nil
}

// validate checks that NewCCEnv can run c: action ranges that decode to
// finite link conditions netem accepts, a positive interval, episode, queue
// and EWMA factor, and an episode within the maxCC bounds. Each error names
// the field at fault.
func (c CCAdversaryConfig) validate() error {
	fields := [3]string{"BandwidthLo, BandwidthHi", "LatencyLoMs, LatencyHiMs", "LossLo, LossHi"}
	for i, r := range c.Ranges() {
		if !(r[0] <= r[1]) || math.IsInf(2*(r[1]-r[0]), 0) {
			return fmt.Errorf("%s [%v, %v] is not a finite lo ≤ hi", fields[i], r[0], r[1])
		}
	}
	if !(c.BandwidthLo > 0) || !(c.LatencyLoMs >= 0) || !(c.LossLo >= 0 && c.LossHi < 1) {
		return fmt.Errorf("BandwidthLo %v must be > 0, LatencyLoMs %v ≥ 0 and LossLo, LossHi %v, %v in [0, 1)",
			c.BandwidthLo, c.LatencyLoMs, c.LossLo, c.LossHi)
	}
	if !(c.IntervalS > 0) || c.EpisodeSteps <= 0 || c.QueuePackets <= 0 || !(c.EWMAAlpha > 0 && c.EWMAAlpha <= 1) {
		return fmt.Errorf("IntervalS %v, EpisodeSteps %d, QueuePackets %d must be positive and EWMAAlpha %v in (0, 1]",
			c.IntervalS, c.EpisodeSteps, c.QueuePackets, c.EWMAAlpha)
	}
	if c.EpisodeSteps > maxCCEpisodeSteps {
		return fmt.Errorf("EpisodeSteps %d above %d", c.EpisodeSteps, maxCCEpisodeSteps)
	}
	if s := c.IntervalS * float64(c.EpisodeSteps); s > maxCCEpisodeS {
		return fmt.Errorf("IntervalS %v × EpisodeSteps %d is %v s of virtual time, above %v s", c.IntervalS, c.EpisodeSteps, s, maxCCEpisodeS)
	}
	if c.BandwidthHi > maxCCBandwidthMbps {
		return fmt.Errorf("BandwidthHi %v Mbps above %v", c.BandwidthHi, maxCCBandwidthMbps)
	}
	return nil
}

// ResolveCheckpoint builds the rl.CheckpointConfig for a command-line run.
// dir == "" disables checkpointing. A non-empty existing directory is
// refused unless resume is true, so a stale -checkpoint-dir cannot silently
// graft a fresh run onto leftover state.
func ResolveCheckpoint(dir string, every int, resume bool) (rl.CheckpointConfig, error) {
	if dir == "" {
		return rl.CheckpointConfig{}, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return rl.CheckpointConfig{}, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	if len(entries) > 0 && !resume {
		return rl.CheckpointConfig{}, fmt.Errorf("core: checkpoint directory %s is not empty; pass -resume to continue from it or point -checkpoint-dir at a fresh directory", dir)
	}
	return rl.CheckpointConfig{Dir: dir, Every: every}, nil
}
