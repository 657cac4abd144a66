// Package serve is the production inference path for trained policy
// networks: a lock-free, hot-reloadable snapshot registry plus a per-core
// batch-aggregating engine that turns millions of independent per-chunk
// decision requests into dense GEMM minibatches.
//
// The design splits the read and write sides completely:
//
//   - Readers (shard workers, one per core) load the current *Snapshot
//     through a single atomic pointer — no locks, no reference counting. A
//     snapshot is immutable from the moment it is published, so a worker
//     that grabbed it mid-swap just finishes its batch on the old weights.
//   - Writers (the control plane) Publish a new network, which validates the
//     architecture against the serving one and atomically swaps the pointer.
//     A failed validation leaves the old snapshot serving — a bad checkpoint
//     push can never take the fleet down.
//
// This is the deployment half of the paper's story: robustified protocols
// only matter once the trained net serves per-chunk decisions at hardware
// speed (RayNet makes the same train/serve split argument for RL-driven
// protocols).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"advnet/internal/nn"
	"advnet/internal/rl"
)

// Snapshot is one immutable published policy network plus metadata. The
// network must never be mutated after publication: every shard worker may be
// running forward passes against it concurrently (see the reader contract on
// nn.MLP). Registry.Publish enforces this by cloning the network it is
// handed.
type Snapshot struct {
	net    *nn.MLP
	id     uint64
	source string
}

// Net returns the snapshot's network. Callers must treat it as read-only.
func (s *Snapshot) Net() *nn.MLP { return s.net }

// ID returns the registry-assigned monotonically increasing snapshot id.
func (s *Snapshot) ID() uint64 { return s.id }

// Source describes where the snapshot came from (a file path, "initial", …).
func (s *Snapshot) Source() string { return s.source }

// Sizes returns the network's layer sizes (including input and output).
func (s *Snapshot) Sizes() []int { return s.net.Sizes() }

// ArchMismatchError reports a Publish whose network does not match the
// serving architecture. The registry keeps serving the old snapshot; the
// caller decides whether to stop the trainer, alert, or roll back.
type ArchMismatchError struct {
	Want []int // serving architecture
	Got  []int // rejected network's architecture
}

// Error implements error.
func (e *ArchMismatchError) Error() string {
	return fmt.Sprintf("serve: snapshot architecture %v does not match serving architecture %v (old snapshot keeps serving)", e.Got, e.Want)
}

// sizesEqual reports whether two layer-size vectors match.
func sizesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Registry holds the currently served snapshot behind an atomic pointer.
// Current is wait-free and safe from any goroutine; Publish/ReloadFile are
// serialized among themselves but never block readers.
type Registry struct {
	cur atomic.Pointer[Snapshot]
	seq atomic.Uint64
	mu  sync.Mutex // serializes writers (validate+swap must be atomic vs other writers)
}

// NewRegistry starts a registry serving a clone of net (so the caller's copy
// may keep training). The first snapshot has id 1 and source "initial".
func NewRegistry(net *nn.MLP) *Registry {
	if net == nil {
		panic("serve: NewRegistry with nil network")
	}
	r := &Registry{}
	snap := &Snapshot{net: net.Clone(), id: r.seq.Add(1), source: "initial"}
	r.cur.Store(snap)
	return r
}

// Current returns the serving snapshot. Lock-free; never nil.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// Publish validates net against the serving architecture and, on success,
// atomically swaps in an immutable clone of it, returning the new snapshot.
// On an architecture mismatch it returns *ArchMismatchError and the old
// snapshot keeps serving untouched — workers holding either snapshot are
// never invalidated, and their pre-sized batch caches stay correct because
// published architectures never change.
func (r *Registry) Publish(net *nn.MLP, source string) (*Snapshot, error) {
	if net == nil {
		return nil, fmt.Errorf("serve: Publish of nil network")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want := r.cur.Load().Sizes()
	if got := net.Sizes(); !sizesEqual(want, got) {
		return nil, &ArchMismatchError{Want: want, Got: got}
	}
	snap := &Snapshot{net: net.Clone(), id: r.seq.Add(1), source: source}
	r.cur.Store(snap)
	return snap, nil
}

// ReloadFile hot-reloads the snapshot from a policy envelope or a PPO
// trainer checkpoint (see rl.LoadPolicyNet), sha256-verified before any
// weight reaches the serving path. On any error — unreadable file, not an
// envelope, corrupt payload, architecture mismatch — the old snapshot keeps
// serving.
func (r *Registry) ReloadFile(path string) (*Snapshot, error) {
	net, err := rl.LoadPolicyNet(path)
	if err != nil {
		return nil, err
	}
	return r.Publish(net, path)
}
