package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/par"
	"advnet/internal/retry"
	"advnet/internal/rl"
)

// WorkerConfig parameterizes a worker process.
type WorkerConfig struct {
	Addr string // coordinator address

	// Backoff paces reconnect attempts after dial failures and connection
	// losses; after MaxDialAttempts consecutive failed dials RunWorker
	// returns a typed *DialError. MaxDialAttempts <= 0 means
	// DefaultMaxDialAttempts.
	Backoff         retry.Backoff
	MaxDialAttempts int
}

// DefaultMaxDialAttempts bounds consecutive failed dials before a worker
// gives up — with the default backoff schedule roughly ten seconds, enough
// to ride out a coordinator restart but not to linger forever after the
// run is gone.
const DefaultMaxDialAttempts = 10

func (c WorkerConfig) maxDialAttempts() int {
	if c.MaxDialAttempts <= 0 {
		return DefaultMaxDialAttempts
	}
	return c.MaxDialAttempts
}

// DialError reports that a worker exhausted its reconnect budget.
type DialError struct {
	Addr     string
	Attempts int
	Err      error
}

func (e *DialError) Error() string {
	return fmt.Sprintf("dist: worker could not reach coordinator %s after %d attempts: %v", e.Addr, e.Attempts, e.Err)
}

func (e *DialError) Unwrap() error { return e.Err }

// workerSession is the state a worker keeps across reconnects: the resolved
// domain, its lanes, the last parameter broadcast and the read buffer. Lanes
// are built lazily per lane index — a worker only pays for the lanes
// actually assigned to it — and survive reconnects (their contents are
// overwritten from the wire before every collect, so staleness is
// impossible by construction).
type workerSession struct {
	domainName string
	dom        Domain
	spec       json.RawMessage
	laneCount  int
	lanes      map[int]*workerLane

	in            frameReader
	paramsVersion uint64
	policy, value [][]float64
}

// workerLane is one lane slot of a worker: the lane, built on its first
// collect, and its reply frame, rebuilt in place every round.
type workerLane struct {
	lane  *rl.Lane
	frame []byte
}

// RunWorker connects to the coordinator and serves lane rollout requests
// until the coordinator sends a shutdown frame (returns nil), the
// reconnect budget is exhausted (*DialError), or a non-recoverable
// protocol/domain error occurs. Connection losses are absorbed by
// redialing under the capped backoff schedule.
func RunWorker(cfg WorkerConfig) error {
	sess := &workerSession{lanes: map[int]*workerLane{}}
	jitter := mathx.NewRNG(uint64(os.Getpid()) | 1)
	dialFailures := 0
	var lastDialErr error
	for {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			dialFailures++
			lastDialErr = err
			if dialFailures >= cfg.maxDialAttempts() {
				return &DialError{Addr: cfg.Addr, Attempts: dialFailures, Err: lastDialErr}
			}
			time.Sleep(cfg.Backoff.Delay(dialFailures-1, jitter))
			continue
		}
		dialFailures = 0
		shutdown, err := sess.serveConn(conn)
		conn.Close()
		if shutdown {
			return nil
		}
		if err != nil && isFatalWorkerError(err) {
			return err
		}
		// Connection lost (coordinator restart, network blip): the next
		// loop iteration redials. The coordinator will rebroadcast
		// parameters on the fresh connection before any collect.
	}
}

// isFatalWorkerError separates errors that redialing cannot fix (domain
// mismatch, malformed spec) from transport losses worth retrying. Frame
// corruption is treated as transport loss: the stream cannot be
// resynchronized, but a fresh connection starts clean.
func isFatalWorkerError(err error) bool {
	switch err.(type) {
	case *UnknownDomainError, *sessionMismatchError:
		return true
	}
	return false
}

// sessionMismatchError reports a coordinator whose spec changed between
// reconnects — a different run took over the address; continuing would mix
// two training runs' state.
type sessionMismatchError struct{ reason string }

func (e *sessionMismatchError) Error() string {
	return "dist: coordinator session mismatch: " + e.reason
}

// handshake sends the hello and adopts (or verifies) the spec reply.
func (s *workerSession) handshake(conn net.Conn) error {
	hello, err := json.Marshal(helloMsg{Version: ProtocolVersion, PID: os.Getpid()})
	if err != nil {
		return err
	}
	if _, err := writeFrame(conn, MsgHello, hello); err != nil {
		return err
	}
	t, body, _, err := s.in.read()
	if err != nil {
		return err
	}
	if t != MsgSpec {
		return &FrameError{Op: "handshake", Reason: fmt.Sprintf("expected spec, got %s", t)}
	}
	var spec specMsg
	if err := json.Unmarshal(body, &spec); err != nil {
		return &FrameError{Op: "handshake", Reason: fmt.Sprintf("spec payload: %v", err)}
	}
	if s.dom == nil {
		dom, err := LookupDomain(spec.Domain)
		if err != nil {
			return err
		}
		if spec.Lanes <= 0 {
			return &sessionMismatchError{reason: fmt.Sprintf("lane count %d", spec.Lanes)}
		}
		s.domainName, s.dom, s.spec, s.laneCount = spec.Domain, dom, spec.Spec, spec.Lanes
		return nil
	}
	if spec.Domain != s.domainName || spec.Lanes != s.laneCount || string(spec.Spec) != string(s.spec) {
		return &sessionMismatchError{reason: "spec changed across reconnect"}
	}
	return nil
}

// serveConn handshakes and serves one connection until shutdown or failure.
func (s *workerSession) serveConn(conn net.Conn) (shutdown bool, err error) {
	s.in.r = conn
	if err := s.handshake(conn); err != nil {
		return false, err
	}
	for {
		t, body, _, err := s.in.read()
		if err != nil {
			return false, err
		}
		switch t {
		case MsgShutdown:
			return true, nil
		case MsgParams:
			if s.paramsVersion, err = decodeParams(body, &s.policy, &s.value); err != nil {
				return false, err
			}
		case MsgCollect:
			req, err := decodeCollect(body, s.laneCount)
			if err != nil {
				return false, err
			}
			if err := s.collect(conn, req); err != nil {
				return false, err
			}
		default:
			return false, &FrameError{Op: "read", Reason: fmt.Sprintf("unexpected %s", t)}
		}
	}
}

// collect runs one round: the listed lanes side by side, one goroutine per
// lane (distinct, and at most the handshake's lane count: decodeCollect
// checked), then the replies in list order. A deterministic lane failure is
// replied as MsgLaneError: the coordinator aborts, the worker lives on.
func (s *workerSession) collect(conn net.Conn, req *collectMsg) error {
	slots := make([]*workerLane, len(req.Lanes))
	for i, lr := range req.Lanes {
		if slots[i] = s.lanes[lr.Lane]; slots[i] == nil {
			slots[i] = &workerLane{}
			s.lanes[lr.Lane] = slots[i]
		}
	}
	if err := par.Run(len(slots), func(i int) error {
		lr := &req.Lanes[i]
		err := slots[i].collect(s, lr, req.ParamsVersion)
		if err == nil {
			return nil
		}
		payload, _ := json.Marshal(laneErrorMsg{Lane: lr.Lane, Err: err.Error()})
		slots[i].frame, err = putFrame(slots[i].frame, MsgLaneError, payload)
		return err
	}); err != nil {
		return err
	}
	for _, w := range slots {
		if _, err := conn.Write(w.frame); err != nil {
			return err
		}
	}
	return nil
}

// collect restores the lane from the request, runs its rollout share under
// the session's parameters and encodes the batch into the lane's frame. A
// panic anywhere in it is the lane's failure too.
func (w *workerLane) collect(s *workerSession, req *laneRequest, version uint64) (err error) {
	defer par.Contain(req.Lane, &err)
	if s.policy == nil || version != s.paramsVersion {
		// The coordinator broadcasts before the first collect on every
		// connection; a mismatch is a protocol bug, not a race.
		return fmt.Errorf("collect under params version %d, worker holds %d", version, s.paramsVersion)
	}
	if w.lane == nil {
		l, err := s.dom.NewLane(s.spec, req.Lane, s.laneCount)
		if err != nil {
			return err
		}
		w.lane = l
	}
	if err := w.lane.SetParams(s.policy, s.value); err != nil {
		return err
	}
	if len(req.State.Env) == 0 {
		// rl.Lane.Restore would start a fresh episode; a remote lane's
		// episode must continue exactly where the last collect left it.
		return fmt.Errorf("collect request without env state")
	}
	if err := w.lane.Restore(req.State); err != nil {
		return err
	}
	b, err := w.lane.Collect(req.Lane, req.Steps)
	if err != nil {
		return err
	}
	w.frame, err = putBatch(w.frame, b)
	return err
}
