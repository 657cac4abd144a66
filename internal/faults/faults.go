// Package faults is a tiny fault-injection registry used by the crash-safety
// test suites. Production code calls Fire at designated failure points
// (file-write renames, rollout-worker loops, evaluation shards, training
// iterations); tests install hooks that return errors or panic at those
// points to exercise the containment and recovery paths. With no hooks
// installed, Fire is a single atomic load — cheap enough to leave compiled
// into the hot paths it guards.
package faults

import (
	"sync"
	"sync/atomic"
)

// Hook is a fault injected at a named point. args identify the firing site
// (e.g. a worker index or an iteration number). Returning a non-nil error
// makes the site fail gracefully; panicking inside the hook simulates a
// crash at the site.
type Hook func(args ...any) error

var (
	mu     sync.Mutex
	hooks  map[string]Hook
	active atomic.Int32 // number of installed hooks; 0 makes Fire a no-op
)

// Set installs the hook for a named point, replacing any previous one.
func Set(point string, h Hook) {
	if h == nil {
		Clear(point)
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[string]Hook)
	}
	if _, ok := hooks[point]; !ok {
		active.Add(1)
	}
	hooks[point] = h
}

// Clear removes the hook for a named point (no-op if absent).
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[point]; ok {
		delete(hooks, point)
		active.Add(-1)
	}
}

// Armed reports whether any hook is installed anywhere. Hot paths whose
// Fire call carries arguments can gate on it: building the variadic args
// heap-allocates even when no hook is listening, while Armed is one atomic
// load. (An argument-less Fire needs no guard — a nil slice is free.)
func Armed() bool { return active.Load() > 0 }

// Fire triggers the hook installed at point, if any. It returns nil when no
// hook is installed. A hook that panics propagates the panic to the caller —
// that is the point: the call site's containment (par.Contain) is what is
// under test.
func Fire(point string, args ...any) error {
	if active.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[point]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(args...)
}

// FailN returns a hook that fails with err each time match(args) is true,
// a convenience for "fail exactly at worker w" / "fail at iteration k" tests.
func FailN(err error, match func(args ...any) bool) Hook {
	return func(args ...any) error {
		if match == nil || match(args...) {
			return err
		}
		return nil
	}
}
