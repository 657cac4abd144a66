package swarm

import (
	"fmt"
	"math"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/stats"
	"advnet/internal/trace"
	"advnet/internal/vclock"
)

// Backend selects how a group's shared bottleneck serves concurrent chunk
// transfers.
type Backend int

const (
	// FluidBackend is the scalable default: egalitarian processor sharing
	// in a fluid model. At any instant the bottleneck's aggregate capacity
	// is divided equally among the active transfers; completions are
	// resolved exactly (not time-stepped) through a virtual-service clock,
	// so the cost per chunk is O(log clients) regardless of bandwidth or
	// chunk size. This is the backend that reaches 100k+ concurrent
	// sessions with an allocation-free steady state.
	FluidBackend Backend = iota
	// NetemBackend runs every client's transfers over a per-client
	// congestion-control flow on one shared packet-granularity
	// netem.Emulator — the ABR-over-CC composition the unified clock
	// makes possible. A chunk completes when its client's flow has
	// delivered the chunk's bits since the request. Packet granularity
	// costs O(packets), so this backend is for modest group sizes
	// (hundreds of clients), not the 100k swarm.
	NetemBackend
)

// GroupConfig parameterizes one shared-bottleneck group of clients.
type GroupConfig struct {
	Clients     int
	FirstClient int // global index of this group's client 0 (protocol factory seed)

	Video   *abr.Video
	Session abr.SessionConfig // HistoryCap <= 0 is promoted to DefaultHistoryCap

	// NewProtocol builds the ABR protocol for a global client index.
	// Nil defaults to abr.NewBB for every client.
	NewProtocol func(globalClient int) abr.Protocol

	// CapacityMbps is the bottleneck's aggregate capacity when Trace is
	// nil. Trace, when set, is replayed cyclically as the shared capacity
	// schedule (its LatencyMs/LossRate columns are ignored by the fluid
	// backend and applied by the netem backend).
	CapacityMbps float64
	Trace        *trace.Trace

	RTTSeconds   float64 // per-chunk request+delivery latency (fluid backend)
	StartWindowS float64 // client start times drawn uniformly from [0, window)

	Backend Backend
	// NewCC builds each client's congestion controller (NetemBackend only).
	NewCC         func() netem.CongestionController
	QueuePackets  int     // netem droptail queue (0 = netem default)
	OneWayDelayMs float64 // netem propagation delay
	LossRate      float64 // netem Bernoulli loss

	// ReservoirCap bounds the per-chunk QoE reservoir (0 = stats default).
	// The reservoir never exceeds Clients × chunks, the group's whole stream.
	ReservoirCap int
}

// DefaultHistoryCap is the throughput/download history retained per lean
// swarm session — enough lookback for every protocol in this repository
// (Pensieve reads 8 samples, MPC and rate-based 5).
const DefaultHistoryCap = 8

type clientPhase uint8

const (
	phaseIdle clientPhase = iota // waiting for its next wake-up
	phaseDownloading
	phaseDone
)

// client is one simulated viewer: a lean abr.Session plus the in-flight
// transfer state the group scheduler tracks for it.
type client struct {
	session *abr.Session
	proto   abr.Protocol

	phase     clientPhase
	level     int32
	sizeBits  float64
	startT    float64
	startBw   float64
	startBits float64 // netem: flow's delivered bits when the chunk was requested

	bits float64 // total payload bits delivered to this client
}

// fluidEntry is one active transfer in the processor-sharing heap, keyed by
// the virtual per-flow service at which it completes. Ties break on client
// index, so simultaneous completions resolve in client order.
type fluidEntry struct {
	vf     float64
	client int32
}

type fluidHeap []fluidEntry

func (h fluidHeap) less(i, j int) bool {
	if h[i].vf != h[j].vf {
		return h[i].vf < h[j].vf
	}
	return h[i].client < h[j].client
}

func (h *fluidHeap) push(e fluidEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *fluidHeap) pop() fluidEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// Group simulates one shared bottleneck and its clients on one event-driven
// virtual clock: wake-up events (chunk requests, buffer-drain resumes) and
// bottleneck events (fluid completions, netem packet events, capacity
// boundaries) interleave on a single timeline in deterministic order.
type Group struct {
	cfg   GroupConfig
	video *abr.Video
	rng   *mathx.RNG

	clients   []client
	obs       abr.Observation // scratch reused across every SelectLevel call
	now       float64
	wakes     vclock.Queue // Actor = client index
	remaining int
	events    uint64

	// fluid backend: virtual per-flow service clock.
	svc    float64
	active fluidHeap

	// capacity schedule (shared by both backends).
	capBps   float64
	capIdx   int
	capUntil float64 // +Inf when capacity is constant

	// netem backend.
	em            *netem.Emulator
	lastDelivered float64

	qoeChunks *stats.Reservoir
	perQoE    []float64 // mean QoE per client, filled at completion
	perRebuf  []float64
	perBits   []float64
	perEnd    []float64 // virtual completion time per client
}

// NewGroup validates the configuration and builds a group with every client
// scheduled to start inside the start window. rng must be private to the
// group (see mathx.RNG.Split); it drives start staggering and, for the netem
// backend, packet loss.
func NewGroup(cfg GroupConfig, rng *mathx.RNG) (*Group, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("swarm: group needs at least one client, got %d", cfg.Clients)
	}
	if cfg.Video == nil {
		return nil, fmt.Errorf("swarm: group config has no video")
	}
	if err := cfg.Video.Validate(); err != nil {
		return nil, err
	}
	if cfg.Session.HistoryCap <= 0 {
		cfg.Session.HistoryCap = DefaultHistoryCap
	}
	if cfg.NewProtocol == nil {
		cfg.NewProtocol = func(int) abr.Protocol { return abr.NewBB() }
	}
	if cfg.Trace != nil {
		if len(cfg.Trace.Points) == 0 {
			return nil, fmt.Errorf("swarm: capacity trace %q has no points", cfg.Trace.Name)
		}
		hasBW := false
		for i, p := range cfg.Trace.Points {
			if p.Duration <= 0 {
				return nil, fmt.Errorf("swarm: capacity trace %q point %d has non-positive duration %v", cfg.Trace.Name, i, p.Duration)
			}
			if p.BandwidthMbps > 0 {
				hasBW = true
			} else if cfg.Backend == NetemBackend {
				return nil, fmt.Errorf("swarm: capacity trace %q point %d has non-positive bandwidth %v (the netem backend cannot serve at zero rate)", cfg.Trace.Name, i, p.BandwidthMbps)
			}
		}
		if !hasBW {
			return nil, fmt.Errorf("swarm: capacity trace %q has zero bandwidth everywhere, the swarm can never finish", cfg.Trace.Name)
		}
	} else if cfg.CapacityMbps <= 0 {
		return nil, fmt.Errorf("swarm: non-positive shared capacity %v Mbps", cfg.CapacityMbps)
	}
	if cfg.Backend == NetemBackend && cfg.NewCC == nil {
		return nil, fmt.Errorf("swarm: netem backend needs a NewCC congestion-controller factory")
	}
	if cfg.RTTSeconds < 0 || cfg.StartWindowS < 0 {
		return nil, fmt.Errorf("swarm: negative RTT (%v) or start window (%v)", cfg.RTTSeconds, cfg.StartWindowS)
	}

	// Every client contributes one sample per chunk, so a reservoir sized
	// to the whole stream never overflows: the same retained sample and RNG
	// stream as a larger one, without the unused slots.
	chunkCap := cfg.ReservoirCap
	if chunkCap <= 0 {
		chunkCap = stats.DefaultReservoirSize
	}
	chunkCap = min(chunkCap, cfg.Clients*cfg.Video.NumChunks())
	g := &Group{
		cfg:       cfg,
		video:     cfg.Video,
		rng:       rng,
		clients:   make([]client, cfg.Clients),
		remaining: cfg.Clients,
		qoeChunks: stats.NewReservoir(chunkCap, rng.Uint64()),
		perQoE:    make([]float64, cfg.Clients),
		perRebuf:  make([]float64, cfg.Clients),
		perBits:   make([]float64, cfg.Clients),
		perEnd:    make([]float64, cfg.Clients),
	}
	g.obs.NextSizesBits = make([]float64, 0, cfg.Video.Levels())
	g.wakes.Grow(cfg.Clients + 1)
	if cfg.Backend == FluidBackend {
		g.active = make(fluidHeap, 0, cfg.Clients)
	}

	if cfg.Trace != nil {
		g.capIdx = 0
		g.capBps = cfg.Trace.Points[0].BandwidthMbps * 1e6
		g.capUntil = cfg.Trace.Points[0].Duration
	} else {
		g.capBps = cfg.CapacityMbps * 1e6
		g.capUntil = math.Inf(1)
	}

	for i := range g.clients {
		c := &g.clients[i]
		c.proto = cfg.NewProtocol(cfg.FirstClient + i)
		c.proto.Reset()
		c.session = abr.NewSession(cfg.Video, unclockedLink{}, cfg.Session)
		startAt := 0.0
		if cfg.StartWindowS > 0 {
			startAt = rng.Uniform(0, cfg.StartWindowS)
		}
		g.wakes.Schedule(vclock.Event{At: startAt, Actor: int32(i)})
	}

	if cfg.Backend == NetemBackend {
		ccs := make([]netem.CongestionController, cfg.Clients)
		for i := range ccs {
			ccs[i] = cfg.NewCC()
		}
		g.em = netem.NewMulti(ccs, netem.Config{
			Initial: netem.Conditions{
				BandwidthMbps: g.capBps / 1e6,
				OneWayDelayMs: cfg.OneWayDelayMs,
				LossRate:      cfg.LossRate,
			},
			QueuePackets: cfg.QueuePackets,
		}, rng.Split())
	}
	return g, nil
}

// unclockedLink is the Link of swarm sessions: download timing is resolved
// by the group scheduler (Session.ApplyChunk), never by the session itself.
type unclockedLink struct{}

func (unclockedLink) Download(_, _ float64) float64 {
	panic("swarm: session downloads are clocked by the group scheduler, not the session link")
}
func (unclockedLink) BandwidthAt(_ float64) float64 { return 0 }

// Events returns the number of scheduler events processed so far.
func (g *Group) Events() uint64 { return g.events }

// RunToCompletion drives the clock until every client finishes.
func (g *Group) RunToCompletion() error {
	for g.remaining > 0 {
		if !g.Step(math.Inf(1)) {
			return fmt.Errorf("swarm: group stalled at t=%v with %d clients unfinished", g.now, g.remaining)
		}
	}
	return nil
}

// Step processes the single earliest pending event if it fires at or before
// until, and reports whether one was processed. Event priority at equal
// times is fixed — fluid completions, then wake-ups, then capacity
// boundaries — so runs are deterministic.
func (g *Group) Step(until float64) bool {
	if g.remaining == 0 {
		return false
	}
	if g.cfg.Backend == NetemBackend {
		return g.stepNetem(until)
	}
	return g.stepFluid(until)
}

const (
	pickComplete = iota
	pickWake
	pickCap
)

func (g *Group) stepFluid(until float64) bool {
	tComp := math.Inf(1)
	if len(g.active) > 0 && g.capBps > 0 {
		need := g.active[0].vf - g.svc
		if need < 0 {
			need = 0
		}
		tComp = g.now + need*float64(len(g.active))/g.capBps
	}
	t, pick := tComp, pickComplete
	if tWake, ok := g.wakes.PeekAt(); ok && tWake < t {
		t, pick = tWake, pickWake
	}
	if g.capUntil < t {
		t, pick = g.capUntil, pickCap
	}
	if t > until || math.IsInf(t, 1) {
		return false
	}
	g.advanceFluid(t)
	switch pick {
	case pickComplete:
		top := g.active.pop()
		if top.vf > g.svc {
			// Absorb the last ulp of accrual rounding so the completing
			// transfer is never left fractionally unserved.
			g.svc = top.vf
		}
		g.complete(int(top.client), g.now-g.clients[top.client].startT+g.cfg.RTTSeconds)
	case pickWake:
		ev, _ := g.wakes.Pop()
		g.wake(int(ev.Actor))
	case pickCap:
		g.advanceCapacity()
	}
	g.events++
	return true
}

// advanceFluid accrues virtual per-flow service up to t and moves the clock.
func (g *Group) advanceFluid(t float64) {
	if n := len(g.active); n > 0 && g.capBps > 0 && t > g.now {
		g.svc += (t - g.now) * g.capBps / float64(n)
	}
	g.now = t
}

// advanceCapacity steps the cyclic capacity schedule to its next point,
// updating the netem emulator's conditions when that backend is active.
func (g *Group) advanceCapacity() {
	pts := g.cfg.Trace.Points
	g.capIdx = (g.capIdx + 1) % len(pts)
	g.capUntil += pts[g.capIdx].Duration
	g.capBps = pts[g.capIdx].BandwidthMbps * 1e6
	if g.em != nil {
		g.em.SetConditions(netem.Conditions{
			BandwidthMbps: g.capBps / 1e6,
			OneWayDelayMs: g.cfg.OneWayDelayMs,
			LossRate:      g.cfg.LossRate,
		})
	}
}

// wake lets a client choose its next chunk and enter the bottleneck.
func (g *Group) wake(ci int) {
	c := &g.clients[ci]
	if !c.session.ObservationInto(&g.obs) {
		return // defensive: a done session has nothing to request
	}
	level := c.proto.SelectLevel(&g.obs)
	if level < 0 {
		level = 0
	} else if level >= g.obs.Levels {
		level = g.obs.Levels - 1
	}
	c.level = int32(level)
	c.sizeBits = g.video.Size(level, g.obs.ChunkIndex)
	c.startT = g.now
	c.startBw = g.capBps / 1e6
	c.phase = phaseDownloading
	if g.cfg.Backend == NetemBackend {
		c.startBits = g.em.FlowDeliveredBits(ci)
		return
	}
	g.active.push(fluidEntry{vf: g.svc + c.sizeBits, client: int32(ci)})
}

// complete applies a finished chunk to its session and schedules the
// client's next request (or retires the client).
func (g *Group) complete(ci int, downloadS float64) {
	c := &g.clients[ci]
	c.phase = phaseIdle
	res := c.session.ApplyChunk(int(c.level), downloadS, c.startBw)
	c.bits += c.sizeBits
	g.qoeChunks.Add(res.QoE)
	if c.session.Done() {
		c.phase = phaseDone
		g.remaining--
		g.perQoE[ci] = c.session.MeanQoE()
		g.perRebuf[ci] = c.session.TotalRebuffer()
		g.perBits[ci] = c.bits
		g.perEnd[ci] = g.now
		return
	}
	// The next request leaves one ack-path later, plus any buffer-full
	// idle time the session reported.
	g.wakes.Schedule(vclock.Event{At: g.now + g.cfg.RTTSeconds + res.WaitS, Actor: int32(ci)})
}

// stepNetem interleaves wake-ups, capacity boundaries, and the packet
// emulator's own events on one timeline. Chunk completions are detected by
// watching each pending flow's cumulative delivered bits after packet
// events that delivered something.
func (g *Group) stepNetem(until float64) bool {
	tWake, hasWake := g.wakes.PeekAt()
	if !hasWake {
		tWake = math.Inf(1)
	}
	tEm, hasEm := g.em.NextEventAt()
	if !hasEm {
		tEm = math.Inf(1)
	}
	t, pick := tWake, pickWake
	if tEm < t {
		t, pick = tEm, pickComplete
	}
	if g.capUntil < t {
		t, pick = g.capUntil, pickCap
	}
	if t > until || math.IsInf(t, 1) {
		return false
	}
	switch pick {
	case pickWake:
		g.now = t
		ev, _ := g.wakes.Pop()
		g.wake(int(ev.Actor))
	case pickCap:
		g.now = t
		g.em.Run(t) // bring the emulator up to the boundary first
		g.advanceCapacity()
	case pickComplete:
		g.em.StepEvent(t)
		if g.em.Now() > g.now {
			g.now = g.em.Now()
		}
		if delivered := g.em.Stats().DeliveredBits; delivered != g.lastDelivered {
			g.lastDelivered = delivered
			g.harvestNetemCompletions()
		}
	}
	g.events++
	return true
}

// harvestNetemCompletions completes, in client order, every pending chunk
// whose flow has delivered the chunk's bits since the request. The scan is
// O(clients); the netem backend is documented for modest group sizes.
func (g *Group) harvestNetemCompletions() {
	for ci := range g.clients {
		c := &g.clients[ci]
		if c.phase != phaseDownloading {
			continue
		}
		if g.em.FlowDeliveredBits(ci)-c.startBits >= c.sizeBits {
			g.complete(ci, g.now-c.startT)
		}
	}
}

// GroupResult is everything a finished group reports to the orchestrator.
type GroupResult struct {
	Clients        int
	Events         uint64
	VirtualEnd     float64 // time the group's last client finished
	Jain           float64 // Jain fairness over per-client delivered bits
	PerClientQoE   []float64
	PerClientRebuf []float64
	PerClientBits  []float64
	QoEChunks      *stats.Reservoir
}

// Result digests the group's outcome. Call it after RunToCompletion.
func (g *Group) Result() *GroupResult {
	end := 0.0
	for _, e := range g.perEnd {
		if e > end {
			end = e
		}
	}
	return &GroupResult{
		Clients:        len(g.clients),
		Events:         g.events,
		VirtualEnd:     end,
		Jain:           stats.Jain(g.perBits),
		PerClientQoE:   g.perQoE,
		PerClientRebuf: g.perRebuf,
		PerClientBits:  g.perBits,
		QoEChunks:      g.qoeChunks,
	}
}
