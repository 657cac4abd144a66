package dist

import (
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"advnet/internal/retry"
	"advnet/internal/rl"
)

// TestDistWorkerProcessHelper is not a test: it is the worker-process body
// for the kill -9 suite, entered only when the driving test re-execs this
// test binary with DIST_WORKER_ADDR set.
func TestDistWorkerProcessHelper(t *testing.T) {
	addr := os.Getenv("DIST_WORKER_ADDR")
	if addr == "" {
		t.Skip("helper: run only via re-exec")
	}
	err := RunWorker(WorkerConfig{
		Addr:    addr,
		Backoff: retry.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dist worker helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnWorkerProcess re-execs the test binary as a real OS worker process.
func spawnWorkerProcess(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestDistWorkerProcessHelper$")
	cmd.Env = append(os.Environ(), "DIST_WORKER_ADDR="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// waitForWorkers blocks until the coordinator has registered n connections.
func waitForWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for len(c.liveConns()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers connected", len(c.liveConns()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistWorkerDeathResume is the kill -9 acceptance test: two real OS
// worker processes serve a W=4 run; one is SIGKILLed at the first
// iteration boundary. The coordinator must absorb the loss (typed
// *WorkerLostError recorded, lanes reassigned to the survivor), the run
// must complete, and — because lanes, not processes, carry the stochastic
// state — the result must still be bitwise identical to the in-process
// VecRunner golden.
func TestDistWorkerDeathResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const W, iters = 4, 4
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, iters)

	var victim atomic.Pointer[os.Process]
	c := newTestCoordinator(t, spec, W, iters, func(cfg *Config) {
		cfg.OnIteration = func(iter int, _ rl.IterStats) {
			if iter == 0 {
				if p := victim.Swap(nil); p != nil {
					p.Signal(syscall.SIGKILL)
				}
			}
		}
	})

	doomed := spawnWorkerProcess(t, c.Addr())
	survivor := spawnWorkerProcess(t, c.Addr())
	victim.Store(doomed.Process)
	waitForWorkers(t, c, 2)

	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Reassignments() == 0 {
		t.Fatal("killed worker caused no lane reassignment")
	}
	loss := lastWorkerLoss(c)
	if loss == nil {
		t.Fatal("killed worker recorded no *WorkerLostError")
	}
	assertStatsEqual(t, stats, vecStats)
	if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("fingerprint %#x after worker kill -9, vec %#x", got, want)
	}

	// The survivor got the shutdown frame and must exit 0; the doomed
	// worker died by SIGKILL.
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving worker exit: %v", err)
	}
	err = doomed.Wait()
	if err == nil {
		t.Fatal("doomed worker exited cleanly; expected SIGKILL death")
	}
}

// lastWorkerLoss reads the coordinator's most recent worker-connection loss.
func lastWorkerLoss(c *Coordinator) *WorkerLostError {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastLoss
}
