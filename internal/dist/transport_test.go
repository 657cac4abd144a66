package dist

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// errInjected is the transport failure the chaos listener reports.
var errInjected = errors.New("injected transport failure")

// chaosListener is a real loopback TCP listener whose transport fails once,
// at one of three points: "accept" closes the first accepted connection and
// fails that Accept (the worker redials); "assign" fails the first parameter
// broadcast written to a worker (the connection is lost as a lane is
// assigned); "recv" fails the first read after a collect request (lost
// while the coordinator awaits the batch). failAccepts > 0 instead fails
// that many Accept calls outright, before any connection is taken.
type chaosListener struct {
	net.Listener
	failOn      string
	failAccepts atomic.Int64

	fired   atomic.Int64 // one-shot failures delivered
	accepts atomic.Int64 // Accept calls
}

func newChaosListener(t *testing.T, failOn string) *chaosListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &chaosListener{Listener: ln, failOn: failOn}
}

// fire reports whether the failure at point is due now: once per listener.
func (l *chaosListener) fire(point string) bool {
	return l.failOn == point && l.fired.Add(1) == 1
}

func (l *chaosListener) Accept() (net.Conn, error) {
	if n := l.accepts.Add(1); n <= l.failAccepts.Load() {
		return nil, errInjected
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.fire("accept") {
		conn.Close()
		return nil, errInjected
	}
	return &chaosConn{Conn: conn, l: l}, nil
}

// chaosConn is one accepted connection of a chaosListener. After the
// handshake only the round goroutine it is assigned to touches it.
type chaosConn struct {
	net.Conn
	l           *chaosListener
	sentCollect bool
}

// Write sees whole frames: writeFrame makes one Write per frame, whose
// fifth byte is the message type.
func (c *chaosConn) Write(p []byte) (int, error) {
	if len(p) > 4 {
		switch MsgType(p[4]) {
		case MsgParams:
			if c.l.fire("assign") {
				return 0, errInjected
			}
		case MsgCollect:
			c.sentCollect = true
		}
	}
	return c.Conn.Write(p)
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if c.sentCollect && c.l.fire("recv") {
		return 0, errInjected
	}
	return c.Conn.Read(p)
}

// newChaosCoordinator is newTestCoordinator on a chaos listener.
func newChaosCoordinator(t *testing.T, ln *chaosListener, spec PensieveSpec, lanes, iters int) *Coordinator {
	t.Helper()
	c, err := newCoordinator(testConfig(t, spec, lanes, iters), ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDistFaultAcceptChaos: a rejected accept costs the worker one
// reconnect and nothing else — the run completes and still matches the
// golden fingerprint.
func TestDistFaultAcceptChaos(t *testing.T) {
	const W, iters = 2, 2
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, iters)

	ln := newChaosListener(t, "accept")
	c := newChaosCoordinator(t, ln, spec, W, iters)
	worker := startWorker(t, c.Addr())
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, worker)
	if ln.fired.Load() == 0 {
		t.Fatal("accept failure never fired")
	}
	assertStatsEqual(t, stats, vecStats)
	if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("fingerprint %#x after accept chaos, vec %#x", got, want)
	}
}

// TestDistFaultRecvChaos: a receive failure drops the connection mid-round;
// the lanes are reassigned (to the same worker's fresh connection here) and
// the result is still bitwise golden.
func TestDistFaultRecvChaos(t *testing.T) {
	testConnLossChaos(t, "recv")
}

// TestDistFaultAssignChaos: same contract for a failure as lanes are
// assigned.
func TestDistFaultAssignChaos(t *testing.T) {
	testConnLossChaos(t, "assign")
}

func testConnLossChaos(t *testing.T, point string) {
	const W, iters = 2, 2
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, iters)

	ln := newChaosListener(t, point)
	c := newChaosCoordinator(t, ln, spec, W, iters)
	worker := startWorker(t, c.Addr())
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, worker)
	if ln.fired.Load() == 0 {
		t.Fatalf("%s failure never fired", point)
	}
	if c.Reassignments() == 0 {
		t.Fatalf("%s chaos caused no reassignment", point)
	}
	if loss := lastWorkerLoss(c); loss == nil || !errors.Is(loss, errInjected) {
		t.Fatalf("%s chaos recorded worker loss %v, want the injected failure", point, loss)
	}
	assertStatsEqual(t, stats, vecStats)
	if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("fingerprint %#x after %s chaos, vec %#x", got, point, want)
	}
}

// TestDistAcceptErrorBacksOff: an Accept that keeps failing (EMFILE, say)
// is retried on the coordinator's backoff schedule instead of in a busy
// loop — a 100 ms window of persistent failure sees a handful of Accept
// calls, not a spinning core — and once Accept recovers the run completes,
// bitwise the VecRunner golden.
func TestDistAcceptErrorBacksOff(t *testing.T) {
	const W, iters = 2, 2
	spec := testSpec()
	vec, vecStats := localRun(t, spec, W, iters)

	ln := newChaosListener(t, "")
	ln.failAccepts.Store(1 << 62) // until the window below has been measured
	c := newChaosCoordinator(t, ln, spec, W, iters)
	time.Sleep(10 * time.Millisecond)
	before := ln.accepts.Load()
	time.Sleep(100 * time.Millisecond)
	// testBackoff doubles from 2 ms to a 40 ms cap, jittered down to half:
	// at most about ten sleeps fit in 110 ms.
	if n := ln.accepts.Load() - before; n > 20 {
		t.Fatalf("%d Accept calls in 100 ms of persistent failure, want a backoff-bounded handful", n)
	}
	ln.failAccepts.Store(0)

	worker := startWorker(t, c.Addr())
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerExit(t, worker)
	assertStatsEqual(t, stats, vecStats)
	if got, want := paramsFingerprint(c.Trainer()), paramsFingerprint(vec); got != want {
		t.Fatalf("fingerprint %#x after accept failures, vec %#x", got, want)
	}
}
