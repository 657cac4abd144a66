package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunFirstErrorInWorkerOrder: worker 2 fails first in time, worker 1
// only after it; Run must still report worker 1's error.
func TestRunFirstErrorInWorkerOrder(t *testing.T) {
	failed := make(chan struct{})
	err := Run(4, func(w int) error {
		switch w {
		case 1:
			<-failed
			return errors.New("worker 1")
		case 2:
			defer close(failed)
			return errors.New("worker 2")
		}
		return nil
	})
	if err == nil || err.Error() != "worker 1" {
		t.Fatalf("Run returned %v, want worker 1's error", err)
	}
}

// TestRunPanicBecomesPanicError covers both the inline worker 0 and a
// goroutine worker.
func TestRunPanicBecomesPanicError(t *testing.T) {
	for _, tc := range []struct{ workers, bad int }{{1, 0}, {4, 0}, {4, 3}} {
		err := Run(tc.workers, func(w int) error {
			if w == tc.bad {
				panic(fmt.Sprintf("boom %d", w))
			}
			return nil
		})
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("W=%d: err = %v, want *PanicError", tc.workers, err)
		}
		if perr.Index != tc.bad || perr.Value != fmt.Sprintf("boom %d", tc.bad) {
			t.Fatalf("W=%d: panic attributed to %d with value %v, want %d", tc.workers, perr.Index, perr.Value, tc.bad)
		}
		if len(perr.Stack) == 0 {
			t.Fatalf("W=%d: no stack captured", tc.workers)
		}
	}
}

// TestRunCallsEachWorkerOnce is meaningful under -race too: every worker
// writes only its own slot.
func TestRunCallsEachWorkerOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		calls := make([]int32, workers)
		if err := Run(workers, func(w int) error {
			atomic.AddInt32(&calls[w], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for w, n := range calls {
			if n != 1 {
				t.Fatalf("W=%d: worker %d called %d times", workers, w, n)
			}
		}
	}
}

// TestRunOneWorkerInline: with workers ≤ 1, do(0) runs on the caller's
// goroutine — its stack still holds this test function.
func TestRunOneWorkerInline(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var calls []int
		if err := Run(workers, func(w int) error {
			calls = append(calls, w)
			if !strings.Contains(string(debug.Stack()), "TestRunOneWorkerInline") {
				t.Errorf("W=%d: do ran off the caller's goroutine", workers)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 1 || calls[0] != 0 {
			t.Fatalf("W=%d: calls %v, want [0]", workers, calls)
		}
	}
}
