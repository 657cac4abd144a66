package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHotReloadConsistency storms the engine while a publisher swaps
// snapshots every millisecond. Each published net is rigged so its argmax on
// the all-ones input identifies it (snapshot id k serves level (k-1) mod
// levels), and the rigging lives in the WEIGHTS — the state the shard caches
// transpose and reuse across batches — so the check also proves every worker
// refreshes its cached transpose on swap. Each response's level must match
// the snapshot id stamped on the decision: the whole batch was answered by
// exactly one snapshot and no response mixes weights from two generations.
// Run under -race this additionally exercises the lock-free registry swap
// against concurrent worker loads.
func TestHotReloadConsistency(t *testing.T) {
	const (
		in     = 4
		levels = 5
		storm  = 4 // producer goroutines
	)
	reg := NewRegistry(riggedW(in, levels, 0))
	eng := MustNewEngine(reg, Config{Workers: 2, MaxBatch: 8})
	defer eng.Close()

	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for k := 1; ; k++ {
			select {
			case <-stopPub:
				return
			default:
			}
			// Snapshot id after this publish is k+1 (the initial snapshot is
			// id 1, rigged to level 0 = (1-1) mod levels — same invariant).
			if _, err := reg.Publish(riggedW(in, levels, k%levels), "swap"); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ones := make([]float64, in)
	for i := range ones {
		ones[i] = 1
	}
	var maxSnap atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				d, err := eng.Select(ones)
				if err != nil {
					t.Error(err)
					return
				}
				if want := int((d.Snapshot - 1) % levels); d.Level != want {
					t.Errorf("snapshot %d served level %d, want %d: response inconsistent with its snapshot",
						d.Snapshot, d.Level, want)
					return
				}
				if s := maxSnap.Load(); d.Snapshot > s {
					maxSnap.CompareAndSwap(s, d.Snapshot)
				}
			}
		}()
	}
	wg.Wait()
	close(stopPub)
	pubWG.Wait()

	if maxSnap.Load() < 2 {
		t.Fatalf("storm never observed a reloaded snapshot (max id %d) — test not exercising hot reload", maxSnap.Load())
	}
}
