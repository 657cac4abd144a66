package abr

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"advnet/internal/trace"
)

// Link models the network path chunks are downloaded over.
type Link interface {
	// Download returns the wall-clock seconds needed to transfer sizeBits
	// starting at the given session time.
	Download(sizeBits, start float64) float64
	// BandwidthAt returns the link capacity in Mbps at the given time,
	// used by oracles that are allowed to know the network.
	BandwidthAt(t float64) float64
}

// ConstantLink is a link whose bandwidth is set externally between downloads;
// it is how the online adversary injects its per-chunk bandwidth choice.
type ConstantLink struct {
	BandwidthMbps float64
	RTTSeconds    float64
}

// Download implements Link: size/bandwidth plus one round trip. A
// non-positive (or NaN) bandwidth would make the division yield ±Inf/NaN and
// silently poison the session clock and every downstream QoE figure, so it
// panics instead.
func (l *ConstantLink) Download(sizeBits, _ float64) float64 {
	if !(l.BandwidthMbps > 0) {
		panic(fmt.Sprintf("abr: ConstantLink.Download with bandwidth %v Mbps (a transfer at <= 0 Mbps never completes)", l.BandwidthMbps))
	}
	return sizeBits/(l.BandwidthMbps*1e6) + l.RTTSeconds
}

// BandwidthAt implements Link.
func (l *ConstantLink) BandwidthAt(_ float64) float64 { return l.BandwidthMbps }

// TraceLink replays a bandwidth trace: the transfer progresses through the
// trace's intervals at their respective rates (the Pensieve simulator's
// download model), plus one round trip of latency per chunk.
//
// The link reads a cumulative-duration index over the trace's points so each
// interval lookup is O(log points) instead of O(points) — one chunk download
// over a trace with many intervals used to be quadratic. A TrainEnv hands its
// links the index its problem builds once per trace (traceIndexes); any other
// link builds its own on its first download, and again whenever the Trace
// pointer or its length changes. Traces are otherwise treated as immutable
// while a link replays them, matching how every caller in this repository
// uses them.
type TraceLink struct {
	Trace      *trace.Trace
	RTTSeconds float64

	idx traceIndex
}

// traceIndex is a trace's cumulative-duration prefix sums. Its sums are
// never written once built, so links on other goroutines may share them.
type traceIndex struct {
	trace *trace.Trace
	cum   []float64 // cum[i] = sum of Points[:i] durations, len(Points)+1
	hasBW bool      // any point with positive bandwidth
}

// indexTrace builds tr's index. The partial sums are accumulated left to
// right, exactly like Trace.TotalDuration and the interval scan the index
// replaces, so every boundary value is bitwise the number the historical
// per-interval rescan computed.
func indexTrace(tr *trace.Trace) traceIndex {
	ix := traceIndex{trace: tr, cum: make([]float64, len(tr.Points)+1)}
	var acc float64
	for i, p := range tr.Points {
		acc += p.Duration
		ix.cum[i+1] = acc
		if p.BandwidthMbps > 0 {
			ix.hasBW = true
		}
	}
	return ix
}

// traceIndexes holds the index of every trace of a dataset, each built on
// its first use and at most once, so the lanes of one problem, on their
// goroutines, share them.
type traceIndexes []struct {
	once sync.Once
	ix   traceIndex
}

func indexTraces(d *trace.Dataset) traceIndexes { return make(traceIndexes, len(d.Traces)) }

// of returns the index of tr, the dataset's trace i.
func (t traceIndexes) of(i int, tr *trace.Trace) traceIndex {
	t[i].once.Do(func() { t[i].ix = indexTrace(tr) })
	return t[i].ix
}

// ensureIndex (re)builds the link's index unless it is its trace's.
func (l *TraceLink) ensureIndex() {
	if l.idx.trace != l.Trace || len(l.idx.cum) != len(l.Trace.Points)+1 {
		l.idx = indexTrace(l.Trace)
	}
}

// Download implements Link by integrating the trace's bandwidth from start
// until sizeBits have been delivered. A trace whose every point has zero
// bandwidth can never deliver a positive transfer — the historical loop spun
// forever growing t — so it panics with a diagnosis instead of hanging.
func (l *TraceLink) Download(sizeBits, start float64) float64 {
	remaining := sizeBits
	t := start
	if !(remaining > 0) {
		return (t - start) + l.RTTSeconds
	}
	l.ensureIndex()
	cum := l.idx.cum
	n := len(cum) - 1
	if n == 0 {
		panic("abr: TraceLink.Download on empty trace")
	}
	if !l.idx.hasBW {
		panic(fmt.Sprintf("abr: TraceLink.Download on trace %q: every point has zero bandwidth, the transfer can never complete", l.Trace.Name))
	}
	total := cum[n]
	if !(total > 0) {
		panic(fmt.Sprintf("abr: TraceLink.Download on trace %q: non-positive total duration %v", l.Trace.Name, total))
	}
	for remaining > 0 {
		// Locate the interval containing t. intoTrace and the prefix sums
		// reproduce the historical linear scan's arithmetic exactly; only
		// the search is logarithmic.
		intoTrace := mod(t, total)
		i := sort.Search(n, func(k int) bool { return intoTrace < cum[k+1] })
		var left float64
		if i == n {
			// mod landed exactly on (or, through rounding, past) the trace
			// end: treat it as the start of the last interval, the
			// historical fallback for a scan that found nothing.
			i = n - 1
			left = l.Trace.Points[i].Duration
		} else {
			left = cum[i+1] - intoTrace
			if left <= 0 {
				left = l.Trace.Points[i].Duration
			}
		}
		p := l.Trace.Points[i]
		rate := p.BandwidthMbps * 1e6 // bits per second
		if rate <= 0 {
			// Zero-bandwidth interval: wait it out.
			t = advance(t, left)
			continue
		}
		canSend := rate * left
		if canSend >= remaining {
			t += remaining / rate
			remaining = 0
		} else {
			remaining -= canSend
			t = advance(t, left)
		}
	}
	return (t - start) + l.RTTSeconds
}

// advance returns t+left, or the next float64 above t when left is below
// t's resolution: the loop would otherwise re-enter an interval narrower
// than one ulp of t forever.
func advance(t, left float64) float64 {
	if u := t + left; u > t {
		return u
	}
	return math.Nextafter(t, math.Inf(1))
}

// BandwidthAt implements Link.
func (l *TraceLink) BandwidthAt(t float64) float64 {
	return l.Trace.At(t).BandwidthMbps
}

// mod returns x modulo m (m > 0). The quotient is floored in floating point
// rather than truncated through int: converting x/m to int overflows for
// quotients beyond 2^63 — reachable for very long session times over very
// short traces — and the resulting garbage quotient silently produced a
// garbage interval index. For every quotient int could represent, Floor is
// bit-identical to the historical truncation (x and m are non-negative
// here), so in-range behaviour is unchanged. Quotients at or above 2^53 have
// no fractional part in float64, so Floor is exact there too and r collapses
// to 0 — the correct cyclic-replay phase to within float64 resolution.
func mod(x, m float64) float64 {
	r := x - math.Floor(x/m)*m
	if r < 0 {
		r += m
	}
	return r
}

// ChunkLink replays a per-chunk bandwidth sequence: the i-th Download call
// (i.e. the i-th chunk) is served at Bandwidths[i] regardless of wall-clock
// timing. This is the exact replay semantic of the online adversary, whose
// actions are indexed by chunk, not by time (§2.1: adversaries make
// observations "every video chunk"); replaying a chunk-indexed trace against
// the protocol it targeted reproduces the online run bit-for-bit.
type ChunkLink struct {
	Bandwidths []float64 // Mbps per chunk; reused cyclically if short
	RTTSeconds float64

	calls int
}

// NewChunkLink builds a chunk-indexed link from a trace's bandwidth series.
func NewChunkLink(tr *trace.Trace, rttS float64) *ChunkLink {
	return &ChunkLink{Bandwidths: tr.Bandwidths(), RTTSeconds: rttS}
}

// Download implements Link, consuming one bandwidth entry per call. A chunk
// served at <= 0 Mbps never finishes (the division yields +Inf and poisons
// session time and QoE with NaN downstream), so it panics instead.
func (l *ChunkLink) Download(sizeBits, _ float64) float64 {
	bw := l.current()
	if !(bw > 0) {
		panic(fmt.Sprintf("abr: ChunkLink.Download chunk %d with bandwidth %v Mbps (a transfer at <= 0 Mbps never completes)", l.calls, bw))
	}
	l.calls++
	return sizeBits/(bw*1e6) + l.RTTSeconds
}

// BandwidthAt implements Link, returning the current chunk's bandwidth.
func (l *ChunkLink) BandwidthAt(_ float64) float64 { return l.current() }

func (l *ChunkLink) current() float64 {
	if len(l.Bandwidths) == 0 {
		panic("abr: empty ChunkLink")
	}
	return l.Bandwidths[l.calls%len(l.Bandwidths)]
}

// Reset rewinds the link to the first chunk.
func (l *ChunkLink) Reset() { l.calls = 0 }
