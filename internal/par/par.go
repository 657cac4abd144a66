// Package par holds the one static fan-out of the repository: rollout lanes,
// evaluation shards and swarm groups all run through Run, and every panic
// contained anywhere in the tree — there and in the serving engine's flush —
// comes back as one *PanicError.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError reports a panic contained inside one worker, lane, shard or
// group. The process survives: the panic is converted into this error and
// the caller decides whether to abort, retry or carry on without the result.
type PanicError struct {
	Index int    // the worker, lane, shard or group that panicked
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Contain, deferred, turns a panic into a *PanicError naming index in *err.
// It allocates nothing unless a panic is recovered.
func Contain(index int, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
	}
}

// Run calls do(w) once for every w in [0, workers), each contained (see
// Contain), and returns the first non-nil error in worker order — never in
// completion order, so the outcome is the same under any scheduling. Worker
// 0 runs on the caller's goroutine and workers 1..W−1 on goroutines of their
// own, so workers ≤ 1 runs do(0) alone and starts no goroutine. Workers
// share nothing through Run: a worker that owns items w, w+W, … writes each
// result to its item's slot, and the caller reduces the slots in item order.
func Run(workers int, do func(w int) error) error {
	if workers <= 1 {
		return call(0, do)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			errs[w] = call(w, do)
		}()
	}
	errs[0] = call(0, do)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call runs do(w) under Contain.
func call(w int, do func(int) error) (err error) {
	defer Contain(w, &err)
	return do(w)
}
