package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/retry"
	"advnet/internal/rl"
)

// Config parameterizes a coordinator.
type Config struct {
	Addr       string          // listen address; empty means "127.0.0.1:0"
	Domain     string          // registered Domain name
	Spec       json.RawMessage // domain spec, shipped to workers verbatim
	Lanes      int             // rollout lanes (the determinism unit, = VecRunner workers)
	Iterations int             // total training iterations

	// Checkpoint enables periodic crash-safe checkpoints (rl.CheckpointDir
	// with an ownership claim). Resume continues from the newest checkpoint
	// in the directory when one exists.
	Checkpoint rl.CheckpointConfig
	Resume     bool

	// Backoff paces the wait for a live worker when none is connected;
	// after WaitRounds sleeps Run fails with a typed *NoWorkersError.
	// WaitRounds <= 0 means DefaultWaitRounds.
	Backoff    retry.Backoff
	WaitRounds int

	// OnIteration, when set, observes each completed iteration. The kill
	// tests use it to murder workers at precise boundaries.
	OnIteration func(iter int, stats rl.IterStats)

	// Registry, when set, receives the dist telemetry area (batches/s,
	// bytes on wire, reassignments).
	Registry *metrics.Registry
}

// DefaultWaitRounds bounds the wait for a first (or replacement) worker:
// with the default backoff schedule the total wait is roughly ten seconds.
const DefaultWaitRounds = 12

func (c Config) waitRounds() int {
	if c.WaitRounds <= 0 {
		return DefaultWaitRounds
	}
	return c.WaitRounds
}

// NoWorkersError reports that the coordinator exhausted its wait for a live
// worker process with lanes still unassigned.
type NoWorkersError struct {
	Rounds int
}

func (e *NoWorkersError) Error() string {
	return fmt.Sprintf("dist: no live workers after %d wait rounds", e.Rounds)
}

// LaneError is a deterministic lane failure reported by a worker (an
// environment or policy panic during the rollout). It aborts the run:
// unlike a connection loss, re-running the same lane state elsewhere would
// fail identically.
type LaneError struct {
	Lane int
	Msg  string
}

func (e *LaneError) Error() string {
	return fmt.Sprintf("dist: lane %d failed deterministically: %s", e.Lane, e.Msg)
}

// WorkerLostError records one worker-connection loss (kill -9, network
// partition, corrupt frame). Lost workers are handled by reassignment, not
// by failing the run; the coordinator keeps the most recent loss
// (lastLoss).
type WorkerLostError struct {
	Worker int // connection id
	Err    error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("dist: lost worker conn %d: %v", e.Worker, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// workerConn is one accepted worker connection. After the handshake all
// frame I/O on the connection happens from the single round goroutine it is
// assigned to, so no lock guards the conn itself.
type workerConn struct {
	id            int
	conn          net.Conn
	in            frameReader // reads conn into a buffer kept across rounds
	paramsVersion uint64      // last broadcast this conn received
}

// Coordinator owns the trainer and drives worker processes through
// collect rounds. Construct with NewCoordinator, drive with Run, always
// Close.
type Coordinator struct {
	cfg   Config
	ppo   *rl.PPO
	state []rl.LaneState
	steps []int
	ckpt  *rl.CheckpointDir

	ln        net.Listener
	jitter    *mathx.RNG
	closed    chan struct{}
	closeOnce sync.Once

	mu        sync.Mutex
	conns     map[int]*workerConn
	nextID    int
	connAdded chan struct{}
	lastLoss  *WorkerLostError

	paramsVersion uint64
	paramsFrame   []byte // the current broadcast, sealed once for every conn

	// rollouts holds each lane's decoded batch, its storage reused every
	// iteration; a round goroutine writes only the lanes assigned to it.
	rollouts []rl.RolloutBatch

	wireBytes     atomic.Int64
	reassignments atomic.Int64
	batches       atomic.Int64
}

// NewCoordinator binds the listen socket, builds the trainer for the
// configured domain, claims the checkpoint directory (when configured), and
// — with Resume set and a checkpoint present — restores the newest
// checkpoint. It does not collect anything until Run.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newCoordinator(cfg, ln)
}

// newCoordinator is NewCoordinator on a bound listener, the coordinator's
// transport seam: the package's tests pass one whose connections fail on
// demand. It owns ln, closing it when construction fails.
func newCoordinator(cfg Config, ln net.Listener) (_ *Coordinator, err error) {
	defer func() {
		if err != nil {
			ln.Close()
		}
	}()
	if cfg.Lanes <= 0 {
		return nil, fmt.Errorf("dist: Config.Lanes=%d", cfg.Lanes)
	}
	if cfg.Iterations < 0 {
		return nil, fmt.Errorf("dist: Config.Iterations=%d", cfg.Iterations)
	}
	dom, err := LookupDomain(cfg.Domain)
	if err != nil {
		return nil, err
	}
	ppo, factory, err := dom.NewTrainer(cfg.Spec, cfg.Lanes)
	if err != nil {
		return nil, err
	}
	// NewLaneStates consumes the trainer RNG in the canonical order even on
	// the resume path — the restore below overwrites every RNG anyway, and
	// fresh starts depend on the consumption happening exactly once here.
	state, err := ppo.NewLaneStates(factory, cfg.Lanes)
	if err != nil {
		return nil, err
	}
	steps, err := ppo.LaneSteps(cfg.Lanes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		ppo:       ppo,
		state:     state,
		steps:     steps,
		rollouts:  make([]rl.RolloutBatch, cfg.Lanes),
		ln:        ln,
		jitter:    mathx.NewRNG(1),
		closed:    make(chan struct{}),
		conns:     map[int]*workerConn{},
		connAdded: make(chan struct{}, 1),
	}
	if cfg.Checkpoint.Dir != "" {
		c.ckpt = &rl.CheckpointDir{Dir: cfg.Checkpoint.Dir, Keep: cfg.Checkpoint.Keep}
		if err := c.ckpt.Acquire(); err != nil {
			return nil, err
		}
		if cfg.Resume {
			if _, _, err := c.ckpt.Latest(); err == nil {
				if _, err := c.ckpt.LoadLatest(c.loadCheckpoint); err != nil {
					c.ckpt.Release()
					return nil, err
				}
			}
		}
	}
	// The accept loop backs off on its own jitter stream: c.jitter belongs
	// to Run's goroutine.
	go c.acceptLoop(c.jitter.Split())
	return c, nil
}

// Addr returns the coordinator's bound listen address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Reassignments returns the number of lane requests that had to be re-sent
// because the worker serving them was lost.
func (c *Coordinator) Reassignments() int64 { return c.reassignments.Load() }

// WireBytes returns the total bytes moved over worker connections.
func (c *Coordinator) WireBytes() int64 { return c.wireBytes.Load() }

// Iteration returns the trainer's completed iteration count.
func (c *Coordinator) Iteration() int { return c.ppo.Iteration() }

// Trainer exposes the coordinator's PPO trainer (parameters, stats) for
// inspection after Run.
func (c *Coordinator) Trainer() *rl.PPO { return c.ppo }

// Close shuts the listener and every worker connection. Workers that are
// mid-reconnect will fail their dials and exit by their own retry caps.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.ln.Close()
		c.mu.Lock()
		for id, w := range c.conns {
			w.conn.Close()
			delete(c.conns, id)
		}
		c.mu.Unlock()
		if c.ckpt != nil {
			c.ckpt.Release()
		}
	})
}

// acceptLoop admits worker connections for the coordinator's lifetime. An
// Accept error other than a closed listener — EMFILE, say, which persists
// until descriptors free up — is retried on the coordinator's backoff
// schedule, reset by the next success, so it cannot spin a core.
func (c *Coordinator) acceptLoop(jitter *mathx.RNG) {
	failures := 0
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-c.closed:
				return
			case <-time.After(c.cfg.Backoff.Delay(failures, jitter)):
			}
			failures++
			continue
		}
		failures = 0
		go c.handshake(conn)
	}
}

// handshake validates a worker's hello, replies with the domain spec, and
// registers the connection for lane assignment.
func (c *Coordinator) handshake(conn net.Conn) {
	in := frameReader{r: conn}
	t, body, n, err := in.read()
	c.wireBytes.Add(int64(n))
	if err != nil || t != MsgHello {
		conn.Close()
		return
	}
	var hello helloMsg
	if json.Unmarshal(body, &hello) != nil || hello.Version != ProtocolVersion {
		conn.Close()
		return
	}
	payload, err := json.Marshal(specMsg{Domain: c.cfg.Domain, Spec: c.cfg.Spec, Lanes: c.cfg.Lanes})
	if err != nil {
		conn.Close()
		return
	}
	n, err = writeFrame(conn, MsgSpec, payload)
	c.wireBytes.Add(int64(n))
	if err != nil {
		conn.Close()
		return
	}
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		conn.Close()
		return
	default:
	}
	id := c.nextID
	c.nextID++
	c.conns[id] = &workerConn{id: id, conn: conn, in: in}
	c.mu.Unlock()
	select {
	case c.connAdded <- struct{}{}:
	default:
	}
}

// liveConns snapshots the registered connections in id order.
func (c *Coordinator) liveConns() []*workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*workerConn, 0, len(c.conns))
	for _, w := range c.conns {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// dropConn removes a lost worker connection and records the loss.
func (c *Coordinator) dropConn(w *workerConn, cause error) {
	w.conn.Close()
	c.mu.Lock()
	delete(c.conns, w.id)
	c.lastLoss = &WorkerLostError{Worker: w.id, Err: cause}
	c.mu.Unlock()
}

// waitWorkers returns the live connections, sleeping through the backoff
// schedule while none are registered.
func (c *Coordinator) waitWorkers() ([]*workerConn, error) {
	for attempt := 0; ; attempt++ {
		if conns := c.liveConns(); len(conns) > 0 {
			return conns, nil
		}
		if attempt >= c.cfg.waitRounds() {
			return nil, &NoWorkersError{Rounds: attempt}
		}
		select {
		case <-c.connAdded:
		case <-time.After(c.cfg.Backoff.Delay(attempt, c.jitter)):
		case <-c.closed:
			return nil, fmt.Errorf("dist: coordinator closed")
		}
	}
}

// bumpParams encodes and seals the current trainer parameters under a new
// version, once for every connection. Called between rounds only, when no
// round goroutine is running.
func (c *Coordinator) bumpParams() error {
	c.paramsVersion++
	var err error
	c.paramsFrame, err = putParams(c.paramsFrame, c.paramsVersion, c.ppo.Policy.Params(), c.ppo.Value.Params())
	return err
}

// laneResult is one lane's outcome within a collect round.
type laneResult struct {
	lane int
	err  error // nil; *LaneError (abort); anything else = connection failure
	conn *workerConn
}

// collectOn drives one connection through a round, reporting exactly one
// result per lane. A lane error leaves the stream in step; any transport or
// framing failure fails the current and all remaining lanes on this conn.
func (c *Coordinator) collectOn(w *workerConn, lanes []int, results chan<- laneResult) {
	lost := c.sendCollect(w, lanes)
	for _, lane := range lanes {
		if lost != nil {
			results <- laneResult{lane: lane, err: lost, conn: w}
			continue
		}
		err := c.receive(w, lane)
		var le *LaneError
		if err != nil && !errors.As(err, &le) {
			lost = err
		}
		results <- laneResult{lane: lane, err: err, conn: w}
	}
}

// sendCollect brings the connection up to the current broadcast, lazily,
// and writes the round's one collect frame, listing its lanes.
func (c *Coordinator) sendCollect(w *workerConn, lanes []int) error {
	if w.paramsVersion != c.paramsVersion {
		n, err := w.conn.Write(c.paramsFrame)
		c.wireBytes.Add(int64(n))
		if err != nil {
			return err
		}
		w.paramsVersion = c.paramsVersion
	}
	req := collectMsg{ParamsVersion: c.paramsVersion, Lanes: make([]laneRequest, len(lanes))}
	for i, lane := range lanes {
		req.Lanes[i] = laneRequest{Lane: lane, Steps: c.steps[lane], State: c.state[lane]}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	n, err := writeFrame(w.conn, MsgCollect, payload)
	c.wireBytes.Add(int64(n))
	return err
}

// receive reads one lane's reply, decoding a batch into c.rollouts[lane].
func (c *Coordinator) receive(w *workerConn, lane int) error {
	t, body, n, err := w.in.read()
	c.wireBytes.Add(int64(n))
	if err != nil {
		return err
	}
	switch t {
	case MsgBatch:
		b := &c.rollouts[lane]
		if err := decodeBatch(body, b); err != nil {
			return err
		}
		if b.Lane != lane {
			return &FrameError{Op: "decode", Reason: fmt.Sprintf("batch for lane %d, asked for %d", b.Lane, lane)}
		}
		c.batches.Add(1)
		return nil
	case MsgLaneError:
		var le laneErrorMsg
		if json.Unmarshal(body, &le) != nil {
			return &FrameError{Op: "decode", Reason: "lane-error payload"}
		}
		return &LaneError{Lane: lane, Msg: le.Err}
	}
	return &FrameError{Op: "read", Reason: fmt.Sprintf("unexpected %s during collect", t)}
}

// runIteration performs one distributed iteration: assign every lane to a
// live worker (reassigning across rounds as workers die), merge the batches
// in lane order, update. Only a deterministic *LaneError, worker starvation,
// or a trainer-side failure aborts; connection losses are absorbed.
func (c *Coordinator) runIteration() (rl.IterStats, error) {
	c.state[0].RNG = c.ppo.RNGState() // lane 0 shares the trainer RNG
	pending := make([]int, c.cfg.Lanes)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		conns, err := c.waitWorkers()
		if err != nil {
			return rl.IterStats{}, err
		}
		assign := map[*workerConn][]int{}
		for i, lane := range pending {
			w := conns[i%len(conns)]
			assign[w] = append(assign[w], lane)
		}
		results := make(chan laneResult, len(pending))
		for w, lanes := range assign {
			go c.collectOn(w, lanes, results)
		}
		var failed []int
		dropped := map[int]bool{}
		for range pending {
			r := <-results
			if r.err == nil {
				continue
			}
			var le *LaneError
			if errors.As(r.err, &le) {
				return rl.IterStats{}, r.err
			}
			if !dropped[r.conn.id] {
				dropped[r.conn.id] = true
				c.dropConn(r.conn, r.err)
			}
			failed = append(failed, r.lane)
		}
		if len(failed) > 0 {
			sort.Ints(failed)
			c.reassignments.Add(int64(len(failed)))
		}
		pending = failed
	}
	batches := make([]*rl.RolloutBatch, c.cfg.Lanes)
	for i := range batches {
		batches[i] = &c.rollouts[i]
	}
	stats, err := c.ppo.ApplyRemoteRollouts(batches)
	if err != nil {
		return stats, err
	}
	for i := range c.state {
		c.state[i] = batches[i].End
	}
	return stats, nil
}

// loadCheckpoint restores the trainer and the lane states from a checkpoint
// (resume, and the divergence watchdog's rollback).
func (c *Coordinator) loadCheckpoint(path string) error {
	restored, err := c.ppo.LoadLaneCheckpoint(path)
	if err != nil {
		return err
	}
	if len(restored) != c.cfg.Lanes {
		return fmt.Errorf("dist: checkpoint carries %d lanes, coordinator configured for %d", len(restored), c.cfg.Lanes)
	}
	c.state = restored
	return nil
}

// Run drives the configured number of training iterations (continuing from
// the restored iteration when resuming) through the trainer's crash-safe
// loop — periodic checkpoints, and the NaN/Inf watchdog with rollback — and
// returns the per-iteration stats. On success every worker is sent a
// shutdown frame. Run may be called once; Close releases everything it held.
func (c *Coordinator) Run() ([]rl.IterStats, error) {
	start := time.Now()
	var iterTimer *metrics.Timer
	if c.cfg.Registry != nil {
		c.cfg.Registry.SetConfig("domain", c.cfg.Domain)
		c.cfg.Registry.SetConfig("lanes", c.cfg.Lanes)
		c.cfg.Registry.SetConfig("iterations", c.cfg.Iterations)
		iterTimer = c.cfg.Registry.Timer("iteration", metrics.LowerIsBetter("s"))
	}
	step := func() (rl.IterStats, error) {
		if err := c.bumpParams(); err != nil {
			return rl.IterStats{}, err
		}
		t0 := time.Now()
		stats, err := c.runIteration()
		if err != nil {
			return stats, err
		}
		if iterTimer != nil {
			iterTimer.Observe(time.Since(t0))
		}
		if c.cfg.OnIteration != nil {
			c.cfg.OnIteration(stats.Iteration, stats)
		}
		return stats, nil
	}
	save := func(path string) error { return c.ppo.SaveLaneCheckpoint(path, c.state) }
	out, err := c.ppo.TrainLoop(c.cfg.Iterations, c.ckpt, c.cfg.Checkpoint.Every, step, save, c.loadCheckpoint)
	if err != nil {
		return out, err
	}
	c.shutdownWorkers()
	if c.cfg.Registry != nil {
		elapsed := time.Since(start).Seconds()
		if elapsed > 0 {
			c.cfg.Registry.SetMetric("batches_per_s", float64(c.batches.Load())/elapsed, metrics.HigherIsBetter("batches/s"))
		}
		c.cfg.Registry.SetMetric("wire_bytes", float64(c.wireBytes.Load()), metrics.Info("bytes"))
		c.cfg.Registry.SetMetric("reassignments", float64(c.reassignments.Load()), metrics.Info("count"))
		c.cfg.Registry.SetMetric("batches_total", float64(c.batches.Load()), metrics.Info("count"))
		c.cfg.Registry.SetMetric("wall_s", elapsed, metrics.Info("s"))
	}
	return out, nil
}

// shutdownWorkers tells every live worker the run is complete.
func (c *Coordinator) shutdownWorkers() {
	for _, w := range c.liveConns() {
		n, _ := writeFrame(w.conn, MsgShutdown, nil)
		c.wireBytes.Add(int64(n))
		w.conn.Close()
		c.mu.Lock()
		delete(c.conns, w.id)
		c.mu.Unlock()
	}
}
