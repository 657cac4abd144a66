package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"advnet/internal/mathx"
	"advnet/internal/metrics"
	"advnet/internal/nn"
	"advnet/internal/par"
	"advnet/internal/stats"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of shards, each owning one request queue and one
	// pre-sized batch cache. It starts no goroutine: every gather runs on a
	// caller of Select. Production sizing is one per core (default:
	// GOMAXPROCS).
	Workers int
	// MaxBatch is the largest batch one forward pass answers and the
	// capacity of each shard's batch cache (default 32). A gather flushes
	// at MaxBatch or as soon as the shard's queue runs dry, whichever comes
	// first; there is no batching window.
	MaxBatch int
	// QueueDepth is each shard's bounded request-queue capacity (default
	// 4×MaxBatch). Only a request that finds its shard busy is queued. A
	// full queue applies backpressure: Select blocks until space frees
	// (interrupted only by Close), while a deadline-carrying request sheds
	// with *OverloadError when the deadline expires first.
	QueueDepth int
	// DefaultDeadline is the per-request deadline Select applies (the
	// degradation contract, DESIGN.md §8.7). Zero means no deadline — a
	// request waits for capacity indefinitely (interrupted only by Close).
	// SelectDeadline overrides it per call.
	DefaultDeadline time.Duration
	// Seed seeds the per-shard latency reservoirs (default 1).
	Seed uint64
}

// Validate rejects configurations with no defined meaning. withDefaults
// assumes a validated config.
func (c Config) Validate() error {
	if c.DefaultDeadline < 0 {
		return fmt.Errorf("serve: negative DefaultDeadline %v (zero disables deadlines)", c.DefaultDeadline)
	}
	return nil
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ErrEngineClosed is returned by Select/SelectDeadline once Close has begun:
// by calls that arrive after it and by calls that were still waiting for
// queue space when it began. Requests already accepted into a shard queue
// are answered normally during the drain.
var ErrEngineClosed = errors.New("serve: engine closed")

// latencySample: enqueue→computed latency is recorded for one round-robin
// round of requests in every latencySample — one request per shard, so
// every shard's reservoir sees traffic whatever the shard count. Sampling
// keeps two clock reads per request off the hot path; the reservoirs behind
// Stats subsample anyway, so the percentile summary loses nothing.
const latencySample = 8

// OverloadReason says which admission-control limit shed a request.
type OverloadReason uint8

const (
	// OverloadQueueFull sheds a request whose deadline expired while its
	// shard's queue stayed full — the engine never accepted it.
	OverloadQueueFull OverloadReason = iota
	// OverloadDeadline sheds a request whose deadline expired after it was
	// queued but before a gather batched it.
	OverloadDeadline
)

// String names the reason for logs and metrics.
func (r OverloadReason) String() string {
	switch r {
	case OverloadQueueFull:
		return "queue-full"
	case OverloadDeadline:
		return "deadline"
	}
	return fmt.Sprintf("overload(%d)", uint8(r))
}

// OverloadError reports a request shed by admission control instead of
// served. It is the caller's signal to degrade — answer from a fallback
// policy (abr.PensieveServe does), retry later, or surface the overload.
// The shed path returns shared immutable instances, so shedding allocates
// nothing; match with errors.As.
type OverloadError struct {
	Reason OverloadReason
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: request shed (%s): engine over capacity", e.Reason)
}

// Immutable shed errors — the overload path must not allocate per request.
var (
	errShedQueueFull = &OverloadError{Reason: OverloadQueueFull}
	errShedDeadline  = &OverloadError{Reason: OverloadDeadline}
)

// Decision is the result of one inference request.
type Decision struct {
	// Level is the argmax output index — for a Pensieve-style categorical
	// policy net, the deterministic (Mode) action.
	Level int
	// Snapshot is the id of the snapshot that produced the decision. Every
	// request in a batch is answered by exactly one snapshot.
	Snapshot uint64
}

// Request ownership states. A request starts pending; exactly one side wins
// it: a gather claims it into a batch, or a deadline-expired caller
// abandons it. The loser of the race leaves the request to the winner.
const (
	reqPending uint32 = iota
	reqClaimed
	reqAbandoned
)

// request is one in-flight inference request. Requests are pooled and their
// done channel (and deadline timer, once created) is reused, so the
// steady-state request path allocates nothing — including the shed paths.
// in aliases the caller's feature slice — safe because the caller blocks in
// Select until a gather has staged the features and answered — and is
// cleared before the request returns to the pool.
type request struct {
	in    []float64 // caller's features, aliased for the batch copy
	level int
	snap  uint64
	err   error         // typed failure (a contained shard panic), nil on success
	start time.Time     // zero unless this request was latency-sampled
	done  chan bool     // capacity 1: false = answered, true = the shard is handed to this caller
	timer *time.Timer   // lazily created, reused across pooled uses
	state atomic.Uint32 // reqPending / reqClaimed / reqAbandoned
}

// shard is one slice of the engine: a bounded MPSC queue (any goroutine
// produces, only the holder of mu consumes) plus everything a gather and its
// flush need. mu is held by whoever gathers, always a caller of Select: one
// that found the shard idle, one that won its lock after queueing, or one
// that release handed the still-locked shard to. So batch, xs, cache and lat
// are written by one goroutine at a time, and a shard never flushes twice at
// once. The counters are written by producers too (admission control runs on
// the caller's goroutine) and are atomic.
type shard struct {
	idx   int
	q     chan *request
	mu    sync.Mutex
	batch []*request // gathered requests, len MaxBatch
	xs    []float64  // staging matrix, MaxBatch×in
	cache *nn.BatchCache

	lat          *stats.Reservoir // flush latency (enqueue→computed), microseconds, under mu
	served       atomic.Uint64
	batches      atomic.Uint64
	shedQueue    atomic.Uint64 // deadline expired while the queue stayed full
	shedDeadline atomic.Uint64 // deadline expired while waiting in the queue
	panics       atomic.Uint64 // contained flush panics
}

// Engine serves inference requests against the registry's current snapshot
// with per-core batch aggregation: requests are round-robined onto N shards.
// The engine serves on its callers and owns no goroutine. A request that
// finds its shard idle is gathered on its caller's goroutine; one that finds
// it busy is queued, and the gatherer that finishes hands the shard to the
// oldest queued caller, who gathers next (flat combining; see release). A
// gather takes what the queue holds, up to MaxBatch, and answers it with one
// batched forward pass — without ever waiting for more requests to arrive
// (see gather). The Select request path — including the shed paths — is
// allocation-free in steady state.
type Engine struct {
	reg *Registry
	// beforeFlush, when set, runs at the top of every flush, on the caller
	// that gathers; beforeUnlock runs in release once it finds the queue
	// empty, just before the unlock. The package's tests use them to stall
	// or crash a flush and to enqueue in that window, which real callers do
	// not do on demand. They sit beside the fields every flush reads, away
	// from the counters every Select writes.
	beforeFlush  func(shard int)
	beforeUnlock func(shard int)
	cfg          Config
	in           int
	out          int

	shards []*shard
	rr     atomic.Uint64
	pool   sync.Pool

	closed   atomic.Bool
	inflight atomic.Int64 // Selects between admission and the lock attempt after queueing, or the end of an idle gather
	stop     chan struct{}
}

// NewEngine builds Workers shards serving reg's current snapshot; it starts
// no goroutine. The engine sizes every shard's batch cache for the
// registry's serving architecture once, up front — valid forever because the
// registry rejects architecture-changing publishes. An invalid Config (see
// Validate) is rejected.
func NewEngine(reg *Registry, cfg Config) (*Engine, error) {
	return newEngine(reg, cfg, nil)
}

// newEngine is NewEngine with a beforeFlush hook (see Engine).
func newEngine(reg *Registry, cfg Config, beforeFlush func(shard int)) (*Engine, error) {
	if reg == nil {
		panic("serve: NewEngine with nil registry")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	snap := reg.Current()
	e := &Engine{
		reg:         reg,
		cfg:         cfg,
		in:          snap.Net().InputSize(),
		out:         snap.Net().OutputSize(),
		stop:        make(chan struct{}),
		beforeFlush: beforeFlush,
	}
	e.pool.New = func() any {
		return &request{done: make(chan bool, 1)}
	}
	e.shards = make([]*shard, cfg.Workers)
	for i := range e.shards {
		e.shards[i] = &shard{
			idx:   i,
			q:     make(chan *request, cfg.QueueDepth),
			batch: make([]*request, cfg.MaxBatch),
			xs:    make([]float64, cfg.MaxBatch*e.in),
			cache: e.newCache(),
			lat:   stats.NewReservoir(0, cfg.Seed+uint64(i)),
		}
	}
	return e, nil
}

// newCache builds one shard's inference batch cache (GEMM kernels); a
// contained panic rebuilds it from scratch. Snapshots are immutable, so each
// snapshot's net transposes its weights once, on its first forward, and
// every shard reuses them.
func (e *Engine) newCache() *nn.BatchCache {
	return e.reg.Current().Net().NewBatchCacheGEMM(e.cfg.MaxBatch)
}

// InputSize returns the feature-vector size the engine serves.
func (e *Engine) InputSize() int { return e.in }

// Select answers one inference request under the engine's DefaultDeadline:
// it hands a pooled request to a shard and returns once the shard's batched
// forward pass answers it. If the shard is idle the caller runs that gather
// itself; otherwise it enqueues the request and blocks until a gather
// answers it or the shard is handed to it to gather. The features slice
// is read by whichever goroutine gathers while the caller waits, so callers
// must not mutate it concurrently from another goroutine. Safe for any
// number of concurrent callers. With no deadline configured a full shard
// queue blocks (backpressure, interrupted only by Close — ErrEngineClosed);
// with one, overload sheds typed *OverloadError instead of blocking past
// the deadline. Steady state allocates nothing.
func (e *Engine) Select(features []float64) (Decision, error) {
	return e.SelectDeadline(features, e.cfg.DefaultDeadline)
}

// SelectDeadline is Select with an explicit per-request deadline budget
// covering admission and queue wait. deadline <= 0 means no deadline. The
// degradation contract (DESIGN.md §8.7): the call returns within the
// deadline plus at most one forward pass — if a gather wins the request in
// the instant the deadline expires, the in-flight batch answers it, and if
// release hands it the shard in that instant, the one forward pass it runs
// itself does. A caller that gathers puts its own request first, so it is
// answered by the forward pass it runs; on an idle shard it arms no timer.
func (e *Engine) SelectDeadline(features []float64, deadline time.Duration) (Decision, error) {
	if len(features) != e.in {
		return Decision{}, fmt.Errorf("serve: Select with %d features, serving architecture wants %d", len(features), e.in)
	}
	req := e.pool.Get().(*request)
	req.in = features
	req.err = nil
	req.state.Store(reqPending)
	seq := e.rr.Add(1)
	shards := uint64(len(e.shards))
	if (seq/shards)%latencySample == 0 {
		req.start = time.Now()
	} else {
		req.start = time.Time{}
	}
	sh := e.shards[seq%shards]

	// Admission. inflight spans the window between the closed check and the
	// lock attempt after queueing, or the end of an idle gather: Close's
	// sweep cannot end while any producer might still enqueue (see Close).
	e.inflight.Add(1)
	if e.closed.Load() {
		e.inflight.Add(-1)
		e.recycle(req)
		return Decision{}, ErrEngineClosed
	}
	// An idle shard answers on its caller: nothing is queued ahead of this
	// request (so it overtakes no one) and no one is gathering. The gather
	// takes req first and answers it on req.done before it returns.
	if len(sh.q) == 0 && sh.mu.TryLock() {
		e.gather(sh, req)
		e.release(sh)
		e.inflight.Add(-1)
		<-req.done
		return e.answer(req)
	}
	timed := deadline > 0
	if timed {
		// One timer budgets the whole call: queue admission and the wait
		// for a gather. It lives in the pooled request, so arming it
		// allocates only on the request's first deadline use.
		if req.timer == nil {
			req.timer = time.NewTimer(deadline)
		} else {
			req.timer.Reset(deadline)
		}
	}
	select {
	case sh.q <- req:
	default:
		// Queue full: backpressure. A deadline bounds the wait and sheds;
		// without one the caller blocks until space frees or Close.
		if timed {
			select {
			case sh.q <- req:
			case <-req.timer.C:
				e.inflight.Add(-1)
				sh.shedQueue.Add(1)
				e.recycle(req)
				return Decision{}, errShedQueueFull
			case <-e.stop:
				e.inflight.Add(-1)
				stopTimer(req.timer)
				e.recycle(req)
				return Decision{}, ErrEngineClosed
			}
		} else {
			select {
			case sh.q <- req:
			case <-e.stop:
				e.inflight.Add(-1)
				e.recycle(req)
				return Decision{}, ErrEngineClosed
			}
		}
	}
	// Queued. If the shard's holder unlocked before this request arrived,
	// no one would come for it: take the shard and pass it on.
	if sh.mu.TryLock() {
		e.release(sh)
	}
	e.inflight.Add(-1)

	var lead bool
	if timed {
		select {
		case lead = <-req.done:
		case <-req.timer.C:
			if req.state.CompareAndSwap(reqPending, reqAbandoned) {
				// The next gather or release owns the queued request and
				// recycles it when its claim fails; this caller must not
				// touch it again.
				sh.shedDeadline.Add(1)
				return Decision{}, errShedDeadline
			}
			// A gather claimed the request as the deadline fired, or
			// release handed this caller the shard: the answer is at most
			// one forward pass away.
			lead = <-req.done
		}
		stopTimer(req.timer)
	} else {
		lead = <-req.done
	}
	if lead {
		// The shard is this caller's: gather with its own request first,
		// pass the shard on, then read the answer.
		e.gather(sh, req)
		e.release(sh)
		<-req.done
	}
	return e.answer(req)
}

// answer reads an answered request's result and recycles it.
func (e *Engine) answer(req *request) (Decision, error) {
	if err := req.err; err != nil {
		e.recycle(req)
		return Decision{}, err
	}
	d := Decision{Level: req.level, Snapshot: req.snap}
	e.recycle(req)
	return d, nil
}

// recycle clears a request's aliases and returns it to the pool. Only the
// request's current owner may call it.
func (e *Engine) recycle(req *request) {
	req.in = nil
	req.err = nil
	e.pool.Put(req)
}

// claim takes ownership of a dequeued request. A request whose caller
// abandoned it (deadline expired in the queue) is recycled here — its
// caller has already returned — and excluded from the batch.
func (e *Engine) claim(req *request) bool {
	if req.state.CompareAndSwap(reqPending, reqClaimed) {
		return true
	}
	e.recycle(req)
	return false
}

// gather assembles a batch starting from first, the gathering caller's own
// request, and flushes it as soon as the shard has nothing more to give. The
// caller holds sh.mu and owns first: it never queued it (an idle shard), or
// release claimed it when it handed over the shard. It drains the queue
// without blocking; when the queue runs dry it yields the processor once —
// callers woken by the previous flush get to enqueue their next request, and
// callers that find the lock held queue up behind it — drains again, and
// flushes what it holds. A full batch flushes at MaxBatch. Nothing waits on
// a timer: a lone request is answered by the next forward pass, and batches
// grow only with the load. Without the yield the gatherer wins every race
// against its producers and a saturated shard flushes batches of one
// (DESIGN.md §8.4). Abandoned requests are skipped.
func (e *Engine) gather(sh *shard, first *request) {
	sh.batch[0] = first
	n := 1
	yielded := false
	for n < e.cfg.MaxBatch {
		select {
		case r := <-sh.q:
			if e.claim(r) {
				sh.batch[n] = r
				n++
			}
			continue
		default:
		}
		if yielded {
			break
		}
		runtime.Gosched()
		yielded = true
	}
	e.flushContained(sh, n)
}

// release ends a gather by passing the held shard on. It claims the oldest
// live queued request and wakes its caller with true on done: the shard
// passes to that caller still locked, and it gathers next, so the queue is
// served in FIFO order. Abandoned requests are recycled on the way. With the
// queue empty it unlocks and looks once more: a caller that enqueued and
// failed its TryLock before the unlock relies on this look. One that
// enqueues after it takes the lock itself, or finds a holder who will
// release in turn.
func (e *Engine) release(sh *shard) {
	for {
		select {
		case r := <-sh.q:
			if e.claim(r) {
				r.done <- true
				return
			}
		default:
			if e.beforeUnlock != nil {
				e.beforeUnlock(sh.idx)
			}
			sh.mu.Unlock()
			if len(sh.q) == 0 || !sh.mu.TryLock() {
				return
			}
		}
	}
}

// flushContained runs one flush and answers a failure to every unanswered
// request of the batch. A flush fails only by panicking, which comes back
// from flush as a typed *par.PanicError naming the shard; the shard's batch
// cache is then rebuilt — the panic may have left it mid-write — and the
// shard keeps serving. Other shards never notice.
func (e *Engine) flushContained(sh *shard, n int) {
	if err := e.flush(sh, n); err != nil {
		sh.panics.Add(1)
		sh.cache = e.newCache()
		e.failBatch(sh, n, err)
	}
}

// failBatch answers every unanswered request of batch[:n] with err.
func (e *Engine) failBatch(sh *shard, n int, err error) {
	for i := 0; i < n; i++ {
		req := sh.batch[i]
		if req == nil {
			continue
		}
		sh.batch[i] = nil
		req.err = err
		req.done <- false
	}
}

// flush answers batch[:n] with one batched forward pass against exactly one
// snapshot, contained (see flushContained). Zero allocations.
func (e *Engine) flush(sh *shard, n int) (err error) {
	defer par.Contain(sh.idx, &err)
	if e.beforeFlush != nil {
		e.beforeFlush(sh.idx)
	}
	snap := e.reg.Current()
	net := snap.Net()
	for i := 0; i < n; i++ {
		copy(sh.xs[i*e.in:(i+1)*e.in], sh.batch[i].in)
	}
	out := net.ForwardBatch(sh.cache, sh.xs, n)
	// Counted after the forward (a contained shard panic counts nothing) and
	// before any caller is woken (see Served).
	sh.served.Add(uint64(n))
	sh.batches.Add(1)
	var now time.Time
	for i := 0; i < n; i++ {
		req := sh.batch[i]
		req.level = mathx.ArgMax(out[i*e.out : (i+1)*e.out])
		req.snap = snap.ID()
		if !req.start.IsZero() { // latency-sampled request
			if now.IsZero() {
				now = time.Now()
			}
			sh.lat.Add(float64(now.Sub(req.start)) / float64(time.Microsecond))
		}
		sh.batch[i] = nil
		req.done <- false
	}
	return nil
}

// stopTimer stops t and drains a pending fire, leaving it safe to Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Close stops accepting requests, sees everything already enqueued
// answered, and returns once no gather runs. Idempotent and safe to call
// mid-storm: concurrent Selects either complete normally (their request was
// already accepted) or return ErrEngineClosed — none block past the sweep,
// and a caller blocked waiting for queue space is woken immediately. The
// sweep locks and releases each shard until no producer is inside the
// admission window and every queue was found empty under its lock.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) {
		close(e.stop)
	}
	for {
		idle := e.inflight.Load() == 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			idle = idle && len(sh.q) == 0
			e.release(sh)
		}
		if idle {
			return
		}
		runtime.Gosched()
	}
}

// Served returns the total number of requests answered. Safe to call
// concurrently with serving. A batch is counted before any of its callers is
// woken, so a caller that has returned from Select always finds its own
// request included: once every Select has returned, Served() plus the shed
// counters equals the requests offered.
func (e *Engine) Served() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.served.Load()
	}
	return n
}

// Batches returns the total number of batched forward passes. Safe to call
// concurrently with serving; Served()/Batches() is the realized batching
// density.
func (e *Engine) Batches() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.batches.Load()
	}
	return n
}

// ShedQueue returns the number of requests shed because their deadline
// expired while their shard's queue stayed full. Safe during serving.
func (e *Engine) ShedQueue() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.shedQueue.Load()
	}
	return n
}

// ShedDeadline returns the number of requests shed because their deadline
// expired while queued, before any gather batched them. Safe during serving.
func (e *Engine) ShedDeadline() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.shedDeadline.Load()
	}
	return n
}

// Shed returns the total number of requests shed by admission control.
func (e *Engine) Shed() uint64 { return e.ShedQueue() + e.ShedDeadline() }

// Panics returns the number of contained shard-flush panics. Safe during
// serving.
func (e *Engine) Panics() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.panics.Load()
	}
	return n
}

// EngineStats is a point-in-time digest of the engine's serving counters and
// latency distribution.
type EngineStats struct {
	Served       uint64        `json:"served"`
	Batches      uint64        `json:"batches"`
	AvgBatch     float64       `json:"avg_batch"`
	Workers      int           `json:"workers"`
	Snapshot     uint64        `json:"snapshot"`
	ShedQueue    uint64        `json:"shed_queue"`
	ShedDeadline uint64        `json:"shed_deadline"`
	Panics       uint64        `json:"panics"`
	Latency      stats.Summary `json:"latency_us"` // enqueue→computed, µs
}

// Shed returns the digest's total shed count.
func (st EngineStats) Shed() uint64 { return st.ShedQueue + st.ShedDeadline }

// ShedRate returns the fraction of offered requests shed by admission
// control (0 when nothing was offered).
func (st EngineStats) ShedRate() float64 {
	offered := st.Served + st.Shed()
	if offered == 0 {
		return 0
	}
	return float64(st.Shed()) / float64(offered)
}

// EmitMetrics records the digest into reg under the unified BENCH schema
// (DESIGN.md §8.6): serving throughput and speed metrics as scalars with
// regression rules, the enqueue→computed latency as a "lower is better"
// distribution, and the degradation counters (sheds, contained panics) as
// informational scalars. wallSeconds is the load phase's wall time (the
// engine cannot know it; only the driver does).
func (st EngineStats) EmitMetrics(reg *metrics.Registry, wallSeconds float64) {
	reg.SetMetric("served", float64(st.Served), metrics.Info("requests"))
	reg.SetMetric("batches", float64(st.Batches), metrics.Info("flushes"))
	reg.SetMetric("avg_batch", st.AvgBatch, metrics.Info("requests/flush"))
	reg.SetMetric("wall_seconds", wallSeconds, metrics.Info("s"))
	if wallSeconds > 0 {
		reg.SetMetric("throughput_rps", float64(st.Served)/wallSeconds, metrics.HigherIsBetter("req/s"))
	}
	reg.SetMetric("shed_requests", float64(st.Shed()), metrics.Info("requests"))
	reg.SetMetric("shard_panics", float64(st.Panics), metrics.Info("panics"))
	reg.SetDistribution("latency_us", st.Latency, metrics.LowerIsBetter("us"))
}

// Stats digests the serving counters and per-shard latency reservoirs. The
// latency summary covers the sampled requests that carried a timestamp (its
// Count is the sampled count, not Served), and reads reservoirs that
// whoever holds a shard's lock writes (always a caller of Select), so
// call it only at quiescence — after Close, or when no requests are in
// flight (between load phases). The counter accessors (Served, Batches,
// Shed*, Panics) are always safe.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Served:       e.Served(),
		Batches:      e.Batches(),
		Workers:      len(e.shards),
		Snapshot:     e.reg.Current().ID(),
		ShedQueue:    e.ShedQueue(),
		ShedDeadline: e.ShedDeadline(),
		Panics:       e.Panics(),
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Served) / float64(st.Batches)
	}
	rs := make([]*stats.Reservoir, len(e.shards))
	for i, sh := range e.shards {
		rs[i] = sh.lat
	}
	st.Latency = stats.Summarize(rs...)
	return st
}
