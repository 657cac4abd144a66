package dist

import (
	"encoding/json"
	"fmt"
	"sort"

	"advnet/internal/mathx"
	"advnet/internal/rl"
)

// Domain is one training problem made distributable: a decoder from the
// opaque JSON spec the coordinator ships to every worker verbatim to the
// rl.Problem it describes and the seed of the run's root RNG. Both sides
// must derive identical immutable inputs (corpora, videos) from the spec,
// because only the mutable lane state crosses the wire afterwards. That is
// all a domain has to get right: coordinator and workers are assembled from
// the Problem by rl.NewTrainer and rl.Problem.Lane, exactly as an in-process
// rl.Train of the same Problem is, so the distributed run is bitwise the
// VecRunner run by construction.
type Domain func(spec json.RawMessage) (rl.Problem, uint64, error)

// NewTrainer builds the coordinator-side trainer and the environment factory
// used to capture the canonical initial lane states.
func (d Domain) NewTrainer(spec json.RawMessage, lanes int) (*rl.PPO, rl.EnvFactory, error) {
	pr, seed, err := d(spec)
	if err != nil {
		return nil, nil, err
	}
	return rl.NewTrainer(pr, lanes, mathx.NewRNG(seed))
}

// NewLane builds the worker-side lane for one lane slot.
func (d Domain) NewLane(spec json.RawMessage, lane, lanes int) (*rl.Lane, error) {
	pr, _, err := d(spec)
	if err != nil {
		return nil, err
	}
	return pr.Lane(lane, lanes)
}

// UnknownDomainError names a domain the receiving process does not know —
// typically a version skew between coordinator and worker
// binaries.
type UnknownDomainError struct {
	Name       string
	Registered []string
}

func (e *UnknownDomainError) Error() string {
	return fmt.Sprintf("dist: unknown domain %q (registered: %v)", e.Name, e.Registered)
}

// domains are the distributable problems by name.
var domains = map[string]Domain{"pensieve": pensieveProblem}

// LookupDomain resolves a domain by name.
func LookupDomain(name string) (Domain, error) {
	if d, ok := domains[name]; ok {
		return d, nil
	}
	names := make([]string, 0, len(domains))
	for k := range domains {
		names = append(names, k)
	}
	sort.Strings(names)
	return nil, &UnknownDomainError{Name: name, Registered: names}
}
