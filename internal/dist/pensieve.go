package dist

import (
	"encoding/json"
	"fmt"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

// PensieveSpec parameterizes the "pensieve" domain: PPO training of the
// Pensieve ABR agent on a synthetic FCC-like corpus (abr.PensieveProblem, the
// problem rl.Train trains in process). The corpus is regenerated
// deterministically from DatasetSeed once per process — a few numbers of
// config cross the wire instead of the corpus itself — and a worker's lanes
// share it read-only.
type PensieveSpec struct {
	Seed        uint64 `json:"seed"`         // model/trainer seed
	DatasetSeed uint64 `json:"dataset_seed"` // corpus generation seed
	Traces      int    `json:"traces"`       // corpus size

	// RolloutSteps overrides PPOConfig.RolloutSteps; 0 keeps the canonical
	// Pensieve value (1024). Tests use small rollouts to stay fast.
	RolloutSteps int `json:"rollout_steps,omitempty"`
}

// pensieveProblem decodes a PensieveSpec into abr.PensieveProblem over the
// video and corpus it describes. The video RNG is pinned (seed 1, as
// cmd/advtrain pins it) so coordinator and workers agree on chunk sizes.
func pensieveProblem(raw json.RawMessage) (rl.Problem, uint64, error) {
	var spec PensieveSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return rl.Problem{}, 0, fmt.Errorf("dist: pensieve spec: %w", err)
	}
	video := abr.NewVideo(mathx.NewRNG(1), abr.DefaultVideoConfig())
	dataset := trace.GenerateFCCLikeDataset(mathx.NewRNG(spec.DatasetSeed), trace.DefaultFCCLike(), spec.Traces, "fcc-like")
	pr := abr.PensieveProblem(video, dataset, 0.08)
	if spec.RolloutSteps > 0 {
		pr.Config.RolloutSteps = spec.RolloutSteps
	}
	return pr, spec.Seed, nil
}
