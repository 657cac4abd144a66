package rl

import (
	"encoding/json"
	"fmt"
	"os"

	"advnet/internal/nn"
)

// This file is the bridge between training and serving: it exports the
// policy network out of any trainer checkpoint into a standalone,
// integrity-checked "policy" envelope, and loads policy nets back from every
// on-disk format the repository produces. The serving layer
// (internal/serve) hot-reloads snapshots exclusively through LoadPolicyNet,
// so a model server can point at a live CheckpointDir and pick up whatever
// the trainer last wrote.

// PolicyKind is the envelope kind of a standalone exported policy network.
const PolicyKind = "policy"

// SavePolicyNet writes net as a standalone policy envelope: the same
// {version, kind, sha256, payload} integrity-checked JSON format trainer
// checkpoints use (atomic write, corruption detected on load), with the
// network snapshot as payload.
func SavePolicyNet(path string, net *nn.MLP) error {
	payload, err := json.Marshal(net)
	if err != nil {
		return err
	}
	return writeCheckpoint(path, PolicyKind, json.RawMessage(payload))
}

// readEnvelope loads any checkpoint envelope from path, verifies its version
// and payload integrity, and returns the payload with its kind. A file that
// is not an envelope at all returns kind "".
func readEnvelope(path string) (payload []byte, kind string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Kind == "" {
		return data, "", nil
	}
	if env.Version != CheckpointVersion {
		return nil, "", fmt.Errorf("rl: checkpoint %s: version %d, want %d", path, env.Version, CheckpointVersion)
	}
	sum, want := envelopeDigest(env.Payload), env.SHA256
	if sum != want {
		return nil, "", fmt.Errorf("rl: checkpoint %s: integrity check failed (corrupt or truncated payload)", path)
	}
	return env.Payload, env.Kind, nil
}

// LoadPolicyNet loads a policy network from any format this repository
// writes:
//
//   - a standalone "policy" envelope (SavePolicyNet),
//   - a full trainer checkpoint ("ppo-vec", or the legacy "ppo", envelopes
//     from the SaveCheckpoint family) — the policy net is extracted,
//     optimizer and lane state ignored,
//   - a bare nn.MLP JSON file (the legacy robustify/advtrain -o output).
//
// Envelope formats are sha256-verified before any decoding; the bare-MLP
// fallback has no digest and is validated structurally only.
func LoadPolicyNet(path string) (*nn.MLP, error) {
	payload, kind, err := readEnvelope(path)
	if err != nil {
		return nil, err
	}
	var netJSON json.RawMessage
	switch kind {
	case "", PolicyKind:
		netJSON = payload
	case trainerKind, legacyKind:
		var snap ppoSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("rl: checkpoint %s: %w", path, err)
		}
		netJSON = snap.Policy.Net
	default:
		return nil, fmt.Errorf("rl: checkpoint %s: kind %q holds no policy network", path, kind)
	}
	if len(netJSON) == 0 {
		return nil, fmt.Errorf("rl: checkpoint %s: empty policy network", path)
	}
	net := new(nn.MLP)
	if err := json.Unmarshal(netJSON, net); err != nil {
		return nil, fmt.Errorf("rl: checkpoint %s: policy net: %w", path, err)
	}
	return net, nil
}

// ExportPolicyNet extracts the policy network from a trainer checkpoint (or
// any other loadable policy format) at src and re-writes it as a standalone
// policy envelope at dst — the handoff from a training run to a serving
// fleet.
func ExportPolicyNet(src, dst string) (*nn.MLP, error) {
	net, err := LoadPolicyNet(src)
	if err != nil {
		return nil, err
	}
	if err := SavePolicyNet(dst, net); err != nil {
		return nil, err
	}
	return net, nil
}
