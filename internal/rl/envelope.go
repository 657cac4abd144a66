package rl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"advnet/internal/fsx"
	"advnet/internal/nn"
)

// This file is the repository's one model-file format. Every model that
// reaches disk — trainer checkpoints, exported policy nets, trained
// adversaries, regression baselines — is a JSON envelope
//
//	{"version": 1, "kind": "...", "sha256": "<hex digest of payload>", "payload": {...}}
//
// written atomically by WriteEnvelope and read back by ReadEnvelope, which
// refuses a file that is not an envelope, has another version or kind, or
// whose payload does not match its digest — before anything decodes the
// payload. The kinds and their writers:
//
//	ppo-vec               PPO.SaveLaneCheckpoint (and the SaveCheckpoint family)
//	policy                SavePolicyNet
//	abr-adversary         core.ABRAdversary.Save
//	cc-adversary          core.CCAdversary.Save
//	abr-regression-suite  core.ABRRegressionSuite.Save
//
// The legacy sequential trainer kind "ppo" is still read, because
// crash-resume files outlive the processes that wrote them.

// EnvelopeVersion identifies the envelope format.
const EnvelopeVersion = 1

// envelope is the outer on-disk structure.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// envelopeDigest returns the hex sha256 digest of an envelope payload.
func envelopeDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// WriteEnvelope marshals payload into an envelope of the given kind and
// writes it to path atomically.
func WriteEnvelope(path, kind string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	out, err := json.Marshal(&envelope{
		Version: EnvelopeVersion,
		Kind:    kind,
		SHA256:  envelopeDigest(data),
		Payload: data,
	})
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, out, 0o644)
}

// ReadEnvelope reads the envelope at path and returns its verified payload
// and kind, which is one of kinds. Every error names path.
func ReadEnvelope(path string, kinds ...string) (payload []byte, kind string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Kind == "" || env.SHA256 == "" {
		return nil, "", fmt.Errorf("rl: %s is not a model envelope {version, kind, sha256, payload}", path)
	}
	if env.Version != EnvelopeVersion {
		return nil, "", fmt.Errorf("rl: %s: envelope version %d, want %d", path, env.Version, EnvelopeVersion)
	}
	if !slices.Contains(kinds, env.Kind) {
		return nil, "", fmt.Errorf("rl: %s: kind %q, want %q", path, env.Kind, kinds)
	}
	if envelopeDigest(env.Payload) != env.SHA256 {
		return nil, "", fmt.Errorf("rl: %s: integrity check failed (corrupt or truncated payload)", path)
	}
	return env.Payload, env.Kind, nil
}

// PolicyKind is the envelope kind of a standalone exported policy network.
const PolicyKind = "policy"

// SavePolicyNet writes net as a standalone policy envelope — the handoff
// from a training run (robustify -o) to a serving fleet (serve -policy).
func SavePolicyNet(path string, net *nn.MLP) error {
	return WriteEnvelope(path, PolicyKind, net)
}

// LoadPolicyNet loads a policy network from a "policy" envelope
// (SavePolicyNet) or a trainer checkpoint ("ppo-vec", or the legacy "ppo"),
// whose policy net it extracts, ignoring optimizer and lane state. The
// serving layer (internal/serve) hot-reloads snapshots through it, so a
// model server can point at a live CheckpointDir.
func LoadPolicyNet(path string) (*nn.MLP, error) {
	payload, kind, err := ReadEnvelope(path, PolicyKind, trainerKind, legacyKind)
	if err != nil {
		return nil, err
	}
	if kind == PolicyKind {
		net := new(nn.MLP)
		if err := json.Unmarshal(payload, net); err != nil {
			return nil, fmt.Errorf("rl: %s: policy net: %w", path, err)
		}
		return net, nil
	}
	var snap struct {
		Policy policySnapshot `json:"policy"`
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("rl: %s: %w", path, err)
	}
	if snap.Policy.Net == nil {
		return nil, fmt.Errorf("rl: %s: empty policy network", path)
	}
	return snap.Policy.Net, nil
}
