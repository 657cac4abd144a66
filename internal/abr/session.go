package abr

import (
	"fmt"

	"advnet/internal/mathx"
)

// SessionConfig parameterizes a streaming session.
type SessionConfig struct {
	QoE        QoEConfig
	BufferCapS float64 // client buffer capacity in seconds; 0 means 60

	// HistoryCap bounds the retained throughput/download history. 0 (the
	// default) keeps the full per-chunk record — the historical behaviour
	// every trainer and evaluator relies on. A positive value puts the
	// session in lean mode for swarm-scale runs: per-chunk StepResults are
	// not retained, and the throughput/download histories keep only the
	// most recent samples (between HistoryCap and 2·HistoryCap entries, in
	// a fixed buffer compacted amortized O(1) with no steady-state
	// allocations). HistoryCap must be at least the longest lookback of
	// the protocol driving the session (8 covers every protocol in this
	// repository). Lean sessions are for simulation at scale.
	HistoryCap int
}

// DefaultSessionConfig returns the Pensieve-style defaults (60 s buffer cap,
// linear QoE).
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{QoE: DefaultQoE(), BufferCapS: 60}
}

// StepResult records everything that happened while fetching one chunk.
type StepResult struct {
	ChunkIndex     int
	Level          int
	BitrateMbps    float64
	SizeBits       float64
	DownloadS      float64 // wall-clock transfer time including RTT
	ThroughputMbps float64 // SizeBits / DownloadS
	RebufferS      float64 // stall caused by this chunk
	BufferS        float64 // buffer occupancy after the chunk arrived
	WaitS          float64 // idle time spent draining a full buffer
	QoE            float64 // this chunk's QoE contribution
	BandwidthMbps  float64 // link capacity when the download started
}

// Session simulates one client streaming one video over one link, chunk by
// chunk. It is the substrate every ABR protocol and every adversary in this
// repository runs against.
type Session struct {
	video *Video
	link  Link
	cfg   SessionConfig

	chunk       int
	lastLevel   int
	bufferS     float64
	timeS       float64
	totalQoE    float64
	totalRebufS float64
	results     []StepResult

	throughputHist []float64
	downloadHist   []float64
}

// NewSession starts a session at time 0 with an empty buffer.
func NewSession(video *Video, link Link, cfg SessionConfig) *Session {
	if cfg.BufferCapS <= 0 {
		cfg.BufferCapS = 60
	}
	s := &Session{video: video, link: link, cfg: cfg, lastLevel: -1}
	if cfg.HistoryCap <= 0 {
		// A full session appends one result and one sample of each history
		// per chunk: reserve the whole video once, so they never regrow.
		s.results = make([]StepResult, 0, video.NumChunks())
		s.reserveHist(video.NumChunks())
	}
	return s
}

// Done reports whether the whole video has been downloaded.
func (s *Session) Done() bool { return s.chunk >= s.video.NumChunks() }

// Video returns the video being streamed.
func (s *Session) Video() *Video { return s.video }

// Buffer returns the current buffer occupancy in seconds.
func (s *Session) Buffer() float64 { return s.bufferS }

// NextChunk returns the index of the next chunk to download.
func (s *Session) NextChunk() int { return s.chunk }

// LastLevel returns the level of the most recent chunk, or -1 before the
// first download.
func (s *Session) LastLevel() int { return s.lastLevel }

// TotalQoE returns the accumulated QoE over all downloaded chunks.
func (s *Session) TotalQoE() float64 { return s.totalQoE }

// TotalRebuffer returns the accumulated stall time in seconds over all
// downloaded chunks — tracked as a running sum so lean (HistoryCap > 0)
// sessions report it without retaining per-chunk records.
func (s *Session) TotalRebuffer() float64 { return s.totalRebufS }

// MeanQoE returns the per-chunk mean QoE so far (0 before any download).
// This is the per-video "QoE" quantity Figures 1, 2 and 4 of the paper plot.
func (s *Session) MeanQoE() float64 {
	if s.chunk == 0 {
		return 0
	}
	return s.totalQoE / float64(s.chunk)
}

// Results returns the per-chunk records so far (aliased; do not mutate).
func (s *Session) Results() []StepResult { return s.results }

// Step downloads the next chunk at the given quality level and returns the
// record of what happened. It panics if the session is done or the level is
// out of range.
//
// Step is the session-owned chunk clock: it asks the session's Link how long
// the transfer took and applies the result. An external clock (the swarm's
// shared-bottleneck scheduler, where a transfer's duration depends on every
// other concurrent client) computes the duration itself and calls ApplyChunk
// directly.
func (s *Session) Step(level int) StepResult {
	if s.Done() {
		panic("abr: Step on finished session")
	}
	if level < 0 || level >= s.video.Levels() {
		panic(fmt.Sprintf("abr: level %d out of range [0,%d)", level, s.video.Levels()))
	}
	size := s.video.Size(level, s.chunk)
	bw := s.link.BandwidthAt(s.timeS)
	dl := s.link.Download(size, s.timeS)
	return s.ApplyChunk(level, dl, bw)
}

// ApplyChunk records that the next chunk was fetched at the given quality
// level and that the transfer took downloadS wall-clock seconds, bypassing
// the session's own Link. It performs exactly the buffer, QoE, and history
// bookkeeping Step performs after its Link.Download call — Step is
// implemented on top of it — and is the entry point for external virtual
// clocks (swarm groups) that resolve download durations themselves.
// bandwidthMbps is recorded in the StepResult as the link capacity in force
// when the download started. It panics if the session is done or the level
// is out of range.
func (s *Session) ApplyChunk(level int, downloadS, bandwidthMbps float64) StepResult {
	if s.Done() {
		panic("abr: ApplyChunk on finished session")
	}
	if level < 0 || level >= s.video.Levels() {
		panic(fmt.Sprintf("abr: level %d out of range [0,%d)", level, s.video.Levels()))
	}
	size := s.video.Size(level, s.chunk)
	bw := bandwidthMbps
	dl := downloadS

	rebuf := dl - s.bufferS
	if rebuf < 0 {
		rebuf = 0
	}
	s.bufferS -= dl
	if s.bufferS < 0 {
		s.bufferS = 0
	}
	s.bufferS += s.video.ChunkSeconds
	s.timeS += dl

	// If the buffer exceeds capacity the client idles until it drains.
	var wait float64
	if s.bufferS > s.cfg.BufferCapS {
		wait = s.bufferS - s.cfg.BufferCapS
		s.bufferS = s.cfg.BufferCapS
		s.timeS += wait
	}

	prevMbps := 0.0
	first := s.lastLevel < 0
	if !first {
		prevMbps = s.video.BitrateMbps(s.lastLevel)
	}
	q := s.cfg.QoE.Chunk(s.video.BitrateMbps(level), prevMbps, rebuf, first)

	res := StepResult{
		ChunkIndex:     s.chunk,
		Level:          level,
		BitrateMbps:    s.video.BitrateMbps(level),
		SizeBits:       size,
		DownloadS:      dl,
		ThroughputMbps: size / dl / 1e6,
		RebufferS:      rebuf,
		BufferS:        s.bufferS,
		WaitS:          wait,
		QoE:            q,
		BandwidthMbps:  bw,
	}
	if s.cfg.HistoryCap > 0 {
		s.pushLeanHist(res.ThroughputMbps, res.DownloadS)
	} else {
		s.results = append(s.results, res)
		s.throughputHist = append(s.throughputHist, res.ThroughputMbps)
		s.downloadHist = append(s.downloadHist, res.DownloadS)
	}
	s.totalQoE += q
	s.totalRebufS += rebuf
	s.lastLevel = level
	s.chunk++
	return res
}

// pushLeanHist appends one history sample under HistoryCap: the buffers hold
// at most 2·HistoryCap entries and are compacted by copying the newest
// HistoryCap samples to the front when full, so appends never reallocate
// after the first chunk and the retained window always covers at least the
// last HistoryCap samples.
func (s *Session) pushLeanHist(throughputMbps, downloadS float64) {
	if s.throughputHist == nil {
		s.reserveHist(2 * s.cfg.HistoryCap)
	}
	if len(s.throughputHist) == cap(s.throughputHist) {
		keep := s.cfg.HistoryCap
		n := copy(s.throughputHist, s.throughputHist[len(s.throughputHist)-keep:])
		s.throughputHist = s.throughputHist[:n]
		n = copy(s.downloadHist, s.downloadHist[len(s.downloadHist)-keep:])
		s.downloadHist = s.downloadHist[:n]
	}
	s.throughputHist = append(s.throughputHist, throughputMbps)
	s.downloadHist = append(s.downloadHist, downloadS)
}

// reserveHist gives both histories capacity c, carved from one array; each
// is capped at c, so an append past it cannot run into the other.
func (s *Session) reserveHist(c int) {
	h := make([]float64, 2*c)
	s.throughputHist = h[:0:c]
	s.downloadHist = h[c:c]
}

// Observation is the protocol-visible state of the session, sufficient for
// every ABR algorithm in this repository (and mirroring what the paper's
// adversary observes about its target).
type Observation struct {
	ChunkIndex     int // next chunk to download
	TotalChunks    int
	Levels         int
	BitratesKbps   []float64
	ChunkSeconds   float64
	LastLevel      int // -1 before the first chunk
	BufferS        float64
	LastThroughput float64   // Mbps, 0 before the first chunk
	LastDownloadS  float64   // seconds, 0 before the first chunk
	NextSizesBits  []float64 // per-level size of the next chunk
	ThroughputHist []float64 // all past chunk throughputs, oldest first
	DownloadHist   []float64 // all past download times, oldest first
}

// Observation builds the current protocol-visible state in a fresh
// Observation, or returns nil when the session is done.
func (s *Session) Observation() *Observation {
	o := &Observation{}
	if !s.ObservationInto(o) {
		return nil
	}
	return o
}

// ObservationInto fills o with the current protocol-visible state, reusing
// o's slice capacity so a caller that recycles one Observation per clock
// (RunSession, the envs, the swarm) observes with zero allocations. History
// and bitrate slices alias session/video state — valid until the next chunk
// is applied, and not to be mutated. It reports false (leaving o untouched)
// when the session is done.
func (s *Session) ObservationInto(o *Observation) bool {
	if s.Done() {
		return false
	}
	o.ChunkIndex = s.chunk
	o.TotalChunks = s.video.NumChunks()
	o.Levels = s.video.Levels()
	o.BitratesKbps = s.video.BitratesKbps
	o.ChunkSeconds = s.video.ChunkSeconds
	o.LastLevel = s.lastLevel
	o.BufferS = s.bufferS
	o.NextSizesBits = o.NextSizesBits[:0]
	for l := 0; l < o.Levels; l++ {
		o.NextSizesBits = append(o.NextSizesBits, s.video.SizesBits[l][s.chunk])
	}
	o.ThroughputHist = s.throughputHist
	o.DownloadHist = s.downloadHist
	o.LastThroughput = 0
	o.LastDownloadS = 0
	if n := len(s.throughputHist); n > 0 {
		o.LastThroughput = s.throughputHist[n-1]
		o.LastDownloadS = s.downloadHist[n-1]
	}
	return true
}

// Protocol is an ABR algorithm: given the observable session state it picks
// the quality level for the next chunk.
type Protocol interface {
	Name() string
	// Reset clears per-session state before a new video.
	Reset()
	// SelectLevel returns the level to fetch next.
	SelectLevel(o *Observation) int
}

// RunSession plays an entire video with the given protocol and returns the
// finished session. The protocol sees one Observation, refilled every chunk.
func RunSession(video *Video, link Link, cfg SessionConfig, p Protocol) *Session {
	p.Reset()
	s := NewSession(video, link, cfg)
	var o Observation
	for s.ObservationInto(&o) {
		s.Step(p.SelectLevel(&o))
	}
	return s
}

// HarmonicMean returns the harmonic mean of the last k entries of xs (all of
// xs if it has fewer), the throughput predictor MPC and rate-based use.
// It returns 0 for an empty history.
func HarmonicMean(xs []float64, k int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n > k {
		xs = xs[n-k:]
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// clampLevel bounds a level index to the valid range.
func clampLevel(l, levels int) int {
	return int(mathx.Clamp(float64(l), 0, float64(levels-1)))
}
