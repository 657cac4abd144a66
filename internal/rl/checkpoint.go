package rl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"advnet/internal/fsx"
	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// This file implements full trainer checkpoints: everything a PPO run needs
// to resume bit-for-bit after a crash — policy and value parameters, Adam
// moments and step counters, the trainer RNG (including the Box-Muller
// spare), the iteration counter, and every lane's state (RNG stream,
// pending episode, environment). There is one writer and one reader; the
// sequential trainer, VecRunner and the dist coordinator all save
// "trainer + []LaneState".
//
// Determinism-on-resume contract: a run that is checkpointed at iteration k,
// reloaded into a fresh process, and continued produces the same IterStats
// stream and bitwise-identical final parameters as the uninterrupted run,
// provided the environments either implement EnvCheckpointer (mid-episode
// state round-trips) or are stateless between resets. Checkpoints are taken
// only at iteration boundaries, where the rollout buffer is empty.
//
// On-disk format: the model envelope of envelope.go, kind "ppo-vec", so a
// corrupt or truncated checkpoint yields an error instead of silently-wrong
// trainer state.
// CheckpointDir layers keep-last-K retention and a manifest on top, and
// LoadLatest falls back to the previous checkpoint when the newest one is
// damaged.

// EnvCheckpointer is implemented by environments whose mid-episode state can
// round-trip through a checkpoint. Trainers save the state of envs that
// implement it and restore it on load, which is what extends the bitwise
// determinism-on-resume guarantee across a pending (unfinished) episode.
// Environments that do not implement it can still be used with checkpointed
// training, but the pending episode is abandoned on resume: the first
// post-resume rollout resets the environment, so the resumed run is valid
// but not bit-identical to the uninterrupted one.
type EnvCheckpointer interface {
	// EnvState serializes the environment's current state.
	EnvState() ([]byte, error)
	// SetEnvState restores a state captured by EnvState.
	SetEnvState([]byte) error
}

// trainerKind is the envelope kind of a trainer checkpoint. The name is
// historical: it was VecRunner's, and its layout — trainer state plus one
// entry per lane — is now the only one written.
const trainerKind = "ppo-vec"

// legacyKind is the envelope kind the sequential trainer wrote before the
// layouts were unified: the same payload with its one lane's state inline
// ("collector" at top level, its RNG being the trainer's "rng") instead of
// under "workers". Still readable.
const legacyKind = "ppo"

// ppoSnapshot is the trainer checkpoint payload. Lane 0's RNG is the trainer
// RNG: RNG is authoritative and Workers[0].RNG a copy of it (absent from
// files written before the layouts were unified).
type ppoSnapshot struct {
	Cfg     PPOConfig       `json:"cfg"`
	Iter    int             `json:"iter"`
	Policy  json.RawMessage `json:"policy"` // the policy's MarshalJSON
	Value   json.RawMessage `json:"value"`
	PolOpt  nn.AdamState    `json:"pol_opt"`
	ValOpt  nn.AdamState    `json:"val_opt"`
	RNG     mathx.RNGState  `json:"rng"`
	Col     Episode         `json:"collector"` // always zero; the legacy kind's one lane
	Workers []LaneState     `json:"workers,omitempty"`
}

// restorePolicy loads an encoded policy into an existing policy in place
// (the policy object is shared with lanes and callers, so its identity must
// be preserved). The encoding's architecture must match the policy's.
func restorePolicy(p Policy, data json.RawMessage) error {
	switch t := p.(type) {
	case *CategoricalPolicy:
		var s CategoricalPolicy
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("rl: checkpoint policy: %w", err)
		}
		return copyNet(t.Net(), s.Net())
	case *GaussianPolicy:
		var s GaussianPolicy
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("rl: checkpoint policy: %w", err)
		}
		if s.Dim() != t.Dim() {
			return fmt.Errorf("rl: checkpoint log_std length %d, want %d", s.Dim(), t.Dim())
		}
		if err := copyNet(t.Net(), s.Net()); err != nil {
			return err
		}
		copy(t.LogStd(), s.LogStd())
		t.MinLogStd, t.MaxLogStd = s.MinLogStd, s.MaxLogStd
		return nil
	default:
		return fmt.Errorf("rl: policy type %T does not support checkpointing", p)
	}
}

// copyNet copies a checkpoint's policy net into the trainer's.
func copyNet(dst, src *nn.MLP) error {
	if err := dst.CopyParamsFrom(src); err != nil {
		return fmt.Errorf("rl: checkpoint policy net: %w", err)
	}
	return nil
}

// validateAdamState checks an optimizer state against the parameter groups
// it will be applied to (a lazily-unstepped optimizer has no groups yet).
func validateAdamState(st nn.AdamState, params [][]float64, which string) error {
	if len(st.M) == 0 {
		return nil
	}
	if len(st.M) != len(params) {
		return fmt.Errorf("rl: checkpoint %s optimizer has %d parameter groups, trainer has %d", which, len(st.M), len(params))
	}
	for i := range params {
		if len(st.M[i]) != len(params[i]) {
			return fmt.Errorf("rl: checkpoint %s optimizer group %d has %d values, trainer has %d", which, i, len(st.M[i]), len(params[i]))
		}
	}
	return nil
}

// SaveLaneCheckpoint writes the trainer checkpoint (atomically, with an
// integrity digest): the trainer's state plus every lane's, in lane order.
// lanes[0].RNG is ignored — lane 0's stream is the trainer RNG, which may
// have advanced (in the update) since the lane reported it. Call only at
// iteration boundaries. This is the one writer: PPO.SaveCheckpoint and
// VecRunner.SaveCheckpoint capture their in-process lanes' states and call
// it, the dist coordinator passes the states its workers reported, and the
// bytes are the same for the same run whichever transport collected it.
func (p *PPO) SaveLaneCheckpoint(path string, lanes []LaneState) error {
	if len(lanes) == 0 {
		return fmt.Errorf("rl: SaveLaneCheckpoint with no lanes")
	}
	switch p.Policy.(type) {
	case *CategoricalPolicy, *GaussianPolicy: // restorePolicy reads these back
	default:
		return fmt.Errorf("rl: policy type %T does not support checkpointing", p.Policy)
	}
	pol, err := json.Marshal(p.Policy)
	if err != nil {
		return err
	}
	val, err := json.Marshal(p.Value)
	if err != nil {
		return err
	}
	rng := p.rng.State()
	workers := append([]LaneState(nil), lanes...)
	workers[0].RNG = rng
	return WriteEnvelope(path, trainerKind, &ppoSnapshot{
		Cfg:     p.cfg,
		Iter:    p.iter,
		Policy:  pol,
		Value:   val,
		PolOpt:  p.polOpt.State(),
		ValOpt:  p.valOpt.State(),
		RNG:     rng,
		Workers: workers,
	})
}

// LoadLaneCheckpoint restores a trainer checkpoint into the trainer in place
// and returns the per-lane states for the caller to hand to its lanes
// (lanes[0].RNG is the restored trainer RNG). The trainer must have been
// constructed with the same configuration and architectures; everything
// stochastic is overwritten from the checkpoint. This is the one reader; it
// also accepts the legacy sequential kind as a one-lane checkpoint.
func (p *PPO) LoadLaneCheckpoint(path string) ([]LaneState, error) {
	payload, kind, err := ReadEnvelope(path, trainerKind, legacyKind)
	if err != nil {
		return nil, err
	}
	var snap ppoSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("rl: checkpoint %s: %w", path, err)
	}
	if kind == legacyKind {
		snap.Workers = []LaneState{{Episode: snap.Col}}
	}
	if len(snap.Workers) == 0 {
		return nil, fmt.Errorf("rl: checkpoint %s carries no lane states", path)
	}
	for i, ls := range snap.Workers[1:] {
		if ls.RNG == (mathx.RNGState{}) {
			return nil, fmt.Errorf("rl: checkpoint %s lane %d missing RNG state", path, i+1)
		}
	}
	if err := p.restore(&snap); err != nil {
		return nil, err
	}
	snap.Workers[0].RNG = snap.RNG
	return snap.Workers, nil
}

// restore loads a payload's trainer state into the trainer in place.
func (p *PPO) restore(snap *ppoSnapshot) error {
	if snap.Cfg != p.cfg {
		return fmt.Errorf("rl: checkpoint PPO config %+v differs from trainer config %+v", snap.Cfg, p.cfg)
	}
	if err := restorePolicy(p.Policy, snap.Policy); err != nil {
		return err
	}
	tmp := new(nn.MLP)
	if err := json.Unmarshal(snap.Value, tmp); err != nil {
		return fmt.Errorf("rl: checkpoint value net: %w", err)
	}
	if err := p.Value.CopyParamsFrom(tmp); err != nil {
		return fmt.Errorf("rl: checkpoint value net: %w", err)
	}
	if err := validateAdamState(snap.PolOpt, p.Policy.Params(), "policy"); err != nil {
		return err
	}
	if err := validateAdamState(snap.ValOpt, p.Value.Params(), "value"); err != nil {
		return err
	}
	if err := p.polOpt.SetState(snap.PolOpt); err != nil {
		return err
	}
	if err := p.valOpt.SetState(snap.ValOpt); err != nil {
		return err
	}
	p.rng.SetState(snap.RNG)
	p.iter = snap.Iter
	p.buf.reset()
	return nil
}

// SaveCheckpoint writes the sequential trainer's checkpoint: the trainer plus
// its one lane. env is the training environment; pass nil when no
// environment state should be captured. Call only at iteration boundaries.
func (p *PPO) SaveCheckpoint(path string, env Env) error {
	st, err := p.seq.lanes[0].stateWith(env)
	if err != nil {
		return err
	}
	return p.SaveLaneCheckpoint(path, []LaneState{st})
}

// LoadCheckpoint restores a one-lane checkpoint into the sequential trainer
// (see VecRunner.LoadCheckpoint). env must be the reconstructed training
// environment; its mid-episode state is restored when the checkpoint carries
// one.
func (p *PPO) LoadCheckpoint(path string, env Env) error {
	return p.sequential(env).LoadCheckpoint(path)
}

// Iteration returns the number of completed training iterations (the next
// iteration trained is iteration Iteration()).
func (p *PPO) Iteration() int { return p.iter }

// CheckpointDir manages a directory of rolling checkpoints: numbered files,
// a manifest, keep-last-K retention, and fallback loading. All writes are
// atomic, so a crash at any point leaves a loadable directory.
//
// Keep-last-K pruning assumes a single writer. Processes that share a
// directory (the distributed coordinator, a restarted worker pointed at the
// old flags) must claim it with Acquire first; Save refuses with a typed
// *DirOwnedError when a different live process holds the claim. Directories
// never claimed behave exactly as before.
type CheckpointDir struct {
	Dir  string
	Keep int // checkpoints retained; <= 0 means DefaultKeep

	owned bool // this CheckpointDir holds the directory's ownership claim
}

// DefaultKeep is the number of checkpoints retained when CheckpointDir.Keep
// is unset.
const DefaultKeep = 3

// manifestName is the manifest file within a checkpoint directory.
const manifestName = "manifest.json"

type manifestEntry struct {
	Iter int    `json:"iter"`
	File string `json:"file"`
}

type checkpointManifest struct {
	Entries []manifestEntry `json:"entries"` // ascending by Iter
}

// valid reports whether every entry names the file Save writes for its
// iteration.
func (m checkpointManifest) valid() bool {
	for _, e := range m.Entries {
		if e.File != fileFor(e.Iter) {
			return false
		}
	}
	return true
}

func (d *CheckpointDir) keep() int {
	if d.Keep <= 0 {
		return DefaultKeep
	}
	return d.Keep
}

// fileFor names the checkpoint file for an iteration.
func fileFor(iter int) string { return fmt.Sprintf("ckpt-%08d.json", iter) }

// readManifest loads the manifest, falling back to scanning the directory
// when the manifest is missing, unreadable or names a file Save would not
// have written (ascending iteration order). The check keeps a hostile
// manifest from steering a load — or Save's pruning — outside the
// directory.
func (d *CheckpointDir) readManifest() checkpointManifest {
	var m checkpointManifest
	data, err := os.ReadFile(filepath.Join(d.Dir, manifestName))
	if err == nil && json.Unmarshal(data, &m) == nil && len(m.Entries) > 0 && m.valid() {
		return m
	}
	m = checkpointManifest{}
	// Fallback: scan for ckpt-*.json files (a directory of that name is not
	// a checkpoint).
	entries, err := os.ReadDir(d.Dir)
	if err != nil {
		return checkpointManifest{}
	}
	for _, e := range entries {
		var iter int
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d.json", &iter); n == 1 && e.Type().IsRegular() {
			m.Entries = append(m.Entries, manifestEntry{Iter: iter, File: e.Name()})
		}
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Iter < m.Entries[j].Iter })
	return m
}

// Save writes the checkpoint for iteration iter through write (which
// receives the full file path), then updates the manifest and prunes
// checkpoints beyond the retention count. The manifest is updated only
// after the checkpoint file is fully written, so a crash mid-save leaves
// the previous manifest pointing at intact files.
func (d *CheckpointDir) Save(iter int, write func(path string) error) error {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return err
	}
	if err := d.checkOwnership(); err != nil {
		return err
	}
	name := fileFor(iter)
	if err := write(filepath.Join(d.Dir, name)); err != nil {
		return err
	}
	m := d.readManifest()
	// Replace an existing entry for the same iteration, else append.
	replaced := false
	for i := range m.Entries {
		if m.Entries[i].Iter == iter {
			m.Entries[i].File = name
			replaced = true
			break
		}
	}
	if !replaced {
		m.Entries = append(m.Entries, manifestEntry{Iter: iter, File: name})
		sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Iter < m.Entries[j].Iter })
	}
	// Prune to the newest Keep entries.
	for len(m.Entries) > d.keep() {
		victim := m.Entries[0]
		m.Entries = m.Entries[1:]
		os.Remove(filepath.Join(d.Dir, victim.File))
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(filepath.Join(d.Dir, manifestName), data, 0o644)
}

// Latest returns the newest checkpoint's path and iteration, or an error if
// the directory holds none.
func (d *CheckpointDir) Latest() (path string, iter int, err error) {
	m := d.readManifest()
	if len(m.Entries) == 0 {
		return "", 0, fmt.Errorf("rl: no checkpoints in %s", d.Dir)
	}
	last := m.Entries[len(m.Entries)-1]
	return filepath.Join(d.Dir, last.File), last.Iter, nil
}

// LoadLatest loads the newest checkpoint through load, falling back to the
// next-older one each time load fails (corrupt file, integrity mismatch,
// …). It returns the iteration of the checkpoint that loaded, or an error
// joining every failure when none could be loaded.
func (d *CheckpointDir) LoadLatest(load func(path string) error) (int, error) {
	m := d.readManifest()
	if len(m.Entries) == 0 {
		return 0, fmt.Errorf("rl: no checkpoints in %s", d.Dir)
	}
	var errs []error
	for i := len(m.Entries) - 1; i >= 0; i-- {
		e := m.Entries[i]
		if err := load(filepath.Join(d.Dir, e.File)); err != nil {
			errs = append(errs, fmt.Errorf("ckpt iter %d: %w", e.Iter, err))
			continue
		}
		return e.Iter, nil
	}
	return 0, fmt.Errorf("rl: no loadable checkpoint in %s: %w", d.Dir, errors.Join(errs...))
}
