package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"advnet/internal/mathx"
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
// domain and its lane cache. Lanes are built lazily per lane index — a
// worker only pays for the lanes actually assigned to it — and survive
// reconnects (their contents are overwritten from the wire before every
// collect, so staleness is impossible by construction).
type workerSession struct {
	domainName string
	dom        Domain
	spec       json.RawMessage
	laneCount  int
	lanes      map[int]*rl.Lane

	paramsVersion uint64
	policy, value [][]float64
}

// RunWorker connects to the coordinator and serves lane rollout requests
// until the coordinator sends a shutdown frame (returns nil), the
// reconnect budget is exhausted (*DialError), or a non-recoverable
// protocol/domain error occurs. Connection losses are absorbed by
// redialing under the capped backoff schedule.
func RunWorker(cfg WorkerConfig) error {
	sess := &workerSession{lanes: map[int]*rl.Lane{}}
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
	t, body, _, err := readFrame(conn)
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

// lane returns the worker-side lane for an index, building it on first use.
func (s *workerSession) lane(idx int) (*rl.Lane, error) {
	if l, ok := s.lanes[idx]; ok {
		return l, nil
	}
	l, err := s.dom.NewLane(s.spec, idx, s.laneCount)
	if err != nil {
		return nil, err
	}
	s.lanes[idx] = l
	return l, nil
}

// serveConn handshakes and serves one connection until shutdown or failure.
func (s *workerSession) serveConn(conn net.Conn) (shutdown bool, err error) {
	if err := s.handshake(conn); err != nil {
		return false, err
	}
	for {
		t, body, _, err := readFrame(conn)
		if err != nil {
			return false, err
		}
		switch t {
		case MsgShutdown:
			return true, nil
		case MsgParams:
			version, policy, value, err := decodeParams(body)
			if err != nil {
				return false, err
			}
			s.paramsVersion, s.policy, s.value = version, policy, value
		case MsgCollect:
			var req collectMsg
			if err := json.Unmarshal(body, &req); err != nil {
				return false, &FrameError{Op: "decode", Reason: fmt.Sprintf("collect payload: %v", err)}
			}
			if err := s.collect(conn, &req); err != nil {
				return false, err
			}
		default:
			return false, &FrameError{Op: "read", Reason: fmt.Sprintf("unexpected %s", t)}
		}
	}
}

// collect runs one lane request and writes the batch (or a lane error)
// back. Deterministic lane failures — a panic inside the environment or
// policy, a state that fails to restore — are reported as MsgLaneError
// and do NOT kill the worker: the coordinator decides (and aborts),
// while the worker stays available for other runs' lanes.
func (s *workerSession) collect(conn net.Conn, req *collectMsg) error {
	reply := func(t MsgType, payload []byte) error {
		_, err := writeFrame(conn, t, payload)
		return err
	}
	laneFail := func(msg string) error {
		payload, err := json.Marshal(laneErrorMsg{Lane: req.Lane, Err: msg})
		if err != nil {
			return err
		}
		return reply(MsgLaneError, payload)
	}
	if req.Lane < 0 || req.Lane >= s.laneCount {
		return laneFail(fmt.Sprintf("lane %d out of range [0,%d)", req.Lane, s.laneCount))
	}
	if s.policy == nil || req.ParamsVersion != s.paramsVersion {
		// The coordinator broadcasts before the first collect on every
		// connection; a mismatch is a protocol bug, not a race.
		return laneFail(fmt.Sprintf("collect under params version %d, worker holds %d", req.ParamsVersion, s.paramsVersion))
	}
	l, err := s.lane(req.Lane)
	if err != nil {
		return laneFail(err.Error())
	}
	if err := l.SetParams(s.policy, s.value); err != nil {
		return laneFail(err.Error())
	}
	if len(req.State.Env) == 0 {
		// rl.Lane.Restore would start a fresh episode; a remote lane's
		// episode must continue exactly where the last collect left it.
		return laneFail("collect request without env state")
	}
	if err := l.Restore(req.State); err != nil {
		return laneFail(err.Error())
	}
	b, err := l.Collect(req.Lane, req.Steps)
	if err != nil {
		return laneFail(err.Error())
	}
	payload, err := encodeBatch(b)
	if err != nil {
		return laneFail(err.Error())
	}
	return reply(MsgBatch, payload)
}
