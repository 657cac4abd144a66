package abr

import (
	"fmt"
	"strings"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/trace"
)

// referenceTraceLinkDownload is the pre-index TraceLink.Download, kept
// verbatim as the oracle for the prefix-sum rewrite: it re-derives the
// current interval with a linear rescan of Trace.Points on every loop pass
// (O(points²) per chunk), which is exactly the arithmetic the indexed
// implementation must reproduce bit-for-bit.
func referenceTraceLinkDownload(l *TraceLink, sizeBits, start float64) float64 {
	remaining := sizeBits
	t := start
	total := l.Trace.TotalDuration()
	for remaining > 0 {
		p := l.Trace.At(t)
		intoTrace := mod(t, total)
		var left float64
		acc := 0.0
		for _, q := range l.Trace.Points {
			if intoTrace < acc+q.Duration {
				left = acc + q.Duration - intoTrace
				break
			}
			acc += q.Duration
		}
		if left <= 0 {
			left = p.Duration
		}
		rate := p.BandwidthMbps * 1e6
		if rate <= 0 {
			t += left
			continue
		}
		canSend := rate * left
		if canSend >= remaining {
			t += remaining / rate
			remaining = 0
		} else {
			remaining -= canSend
			t += left
		}
	}
	return (t - start) + l.RTTSeconds
}

// TestTraceLinkDownloadMatchesReference proves the indexed Download returns
// bitwise-identical times to the historical linear-rescan implementation on
// the repository's regression trace families (FCC-like, 3G-like, random,
// plus a trace with zero-bandwidth intervals), across chunk sizes and start
// times including mid-interval and multi-wrap positions.
func TestTraceLinkDownloadMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(123)
	traces := []*trace.Trace{
		trace.Constant("const", 100, 3, 40, 0),
	}
	for _, tr := range trace.GenerateFCCLikeDataset(rng, trace.DefaultFCCLike(), 4, "fcc").Traces {
		traces = append(traces, tr)
	}
	for _, tr := range trace.GenerateThreeGLikeDataset(rng, trace.DefaultThreeGLike(), 4, "3g").Traces {
		traces = append(traces, tr)
	}
	for _, tr := range trace.GenerateRandomDataset(rng, trace.RandomConfig{
		Points: 50, Duration: 2,
		BandwidthLo: 0.4, BandwidthHi: 6, LatencyLo: 20, LatencyHi: 80,
	}, 4, "rand").Traces {
		traces = append(traces, tr)
	}
	// Zero-bandwidth holes the transfer has to wait out.
	holey := trace.Constant("holey", 2, 2, 40, 0)
	holey.Points = append(holey.Points,
		trace.Point{Duration: 3, BandwidthMbps: 0},
		trace.Point{Duration: 1, BandwidthMbps: 5},
		trace.Point{Duration: 0.5, BandwidthMbps: 0},
		trace.Point{Duration: 2.5, BandwidthMbps: 1.5},
	)
	traces = append(traces, holey)

	sizes := []float64{1, 1e3, 5e5, 2e6, 4e7}
	for _, tr := range traces {
		link := &TraceLink{Trace: tr, RTTSeconds: 0.08}
		ref := &TraceLink{Trace: tr, RTTSeconds: 0.08}
		total := tr.TotalDuration()
		starts := []float64{0, 0.1, total / 3, total - 1e-3, total, 2.7 * total}
		for i := 0; i < 200; i++ {
			starts = append(starts, rng.Uniform(0, 3*total))
		}
		for _, size := range sizes {
			for _, start := range starts {
				got := link.Download(size, start)
				want := referenceTraceLinkDownload(ref, size, start)
				if got != want {
					t.Fatalf("trace %q size %v start %v: indexed %v != reference %v",
						tr.Name, size, start, got, want)
				}
			}
		}
	}
}

// TestTraceLinkIndexTracksTraceChanges: swapping the Trace (or growing it in
// place) must rebuild the prefix-sum index, not reuse the stale one.
func TestTraceLinkIndexTracksTraceChanges(t *testing.T) {
	a := trace.Constant("a", 10, 2, 40, 0)
	b := trace.Constant("b", 10, 8, 40, 0)
	link := &TraceLink{Trace: a, RTTSeconds: 0}
	slow := link.Download(8e6, 0) // 8 Mbit at 2 Mbps = 4 s
	link.Trace = b
	fast := link.Download(8e6, 0) // 8 Mbit at 8 Mbps = 1 s
	if slow != 4 || fast != 1 {
		t.Fatalf("downloads %v and %v, want 4 and 1", slow, fast)
	}
	// Same pointer, appended points: length change must invalidate too.
	grown := &trace.Trace{Name: a.Name, Points: append([]trace.Point(nil), a.Points...)}
	link.Trace = grown
	link.Download(1e6, 0)
	grown.Points = append(grown.Points, trace.Point{Duration: 10, BandwidthMbps: 100})
	got := link.Download(2e7, 0)
	want := referenceTraceLinkDownload(&TraceLink{Trace: grown}, 2e7, 0)
	if got != want {
		t.Fatalf("grown trace: %v != reference %v (stale index?)", got, want)
	}
}

// TestTraceLinkAllZeroBandwidthPanics is the regression test for the
// download-hang bug: on a trace where every point has zero bandwidth the
// historical loop never decreased `remaining` and grew t forever.
// Trace.Validate refuses such a trace at load, and a link given one built in
// code fails fast with a clear panic.
func TestTraceLinkAllZeroBandwidthPanics(t *testing.T) {
	dead := &trace.Trace{Name: "dead", Points: []trace.Point{
		{Duration: 1, BandwidthMbps: 0},
		{Duration: 2, BandwidthMbps: 0},
	}}
	if err := dead.Validate(); err == nil {
		t.Fatal("Validate accepted a trace with no positive bandwidth")
	}
	link := &TraceLink{Trace: dead, RTTSeconds: 0.08}

	// A zero-size transfer needs no bandwidth and must still return the RTT.
	if got := link.Download(0, 0); got != 0.08 {
		t.Fatalf("zero-size download = %v, want RTT 0.08", got)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Download on an all-zero-bandwidth trace did not panic (historical behaviour: infinite loop)")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "zero bandwidth") || !strings.Contains(msg, "dead") {
			t.Fatalf("panic message %q does not diagnose the zero-bandwidth trace", msg)
		}
	}()
	link.Download(1e6, 0)
}

func TestConstantLinkNonPositiveBandwidthPanics(t *testing.T) {
	for _, bw := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConstantLink bw=%v: Download did not panic", bw)
				}
			}()
			(&ConstantLink{BandwidthMbps: bw, RTTSeconds: 0.08}).Download(1e6, 0)
		}()
	}
}

func TestChunkLinkNonPositiveBandwidthPanics(t *testing.T) {
	l := &ChunkLink{Bandwidths: []float64{2, 0, 3}, RTTSeconds: 0.08}
	l.Download(1e6, 0) // chunk 0 at 2 Mbps is fine
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ChunkLink.Download on a zero-bandwidth chunk did not panic (would have returned +Inf)")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "chunk 1") {
			t.Fatalf("panic message %q does not name the offending chunk", msg)
		}
	}()
	l.Download(1e6, 0) // chunk 1 at 0 Mbps
}

// benchLongTrace builds a trace with many short intervals — the regime where
// the historical rescan was quadratic per chunk download.
func benchLongTrace(points int) *trace.Trace {
	rng := mathx.NewRNG(9)
	tr := &trace.Trace{Name: fmt.Sprintf("bench-%d", points)}
	for i := 0; i < points; i++ {
		tr.Points = append(tr.Points, trace.Point{
			Duration:      0.25,
			BandwidthMbps: rng.Uniform(0.5, 5),
			LatencyMs:     40,
		})
	}
	return tr
}

// BenchmarkTraceLinkDownload compares the indexed Download against the
// historical linear-rescan reference on long traces (EXPERIMENTS.md records
// the results). The download starts deep into the trace so both
// implementations pay the same wrap-around arithmetic.
func BenchmarkTraceLinkDownload(b *testing.B) {
	for _, points := range []int{100, 2000, 20000} {
		tr := benchLongTrace(points)
		start := tr.TotalDuration() * 0.9
		b.Run(fmt.Sprintf("indexed/points=%d", points), func(b *testing.B) {
			link := &TraceLink{Trace: tr, RTTSeconds: 0.08}
			for i := 0; i < b.N; i++ {
				link.Download(8e6, start+float64(i%7))
			}
		})
		b.Run(fmt.Sprintf("reference/points=%d", points), func(b *testing.B) {
			link := &TraceLink{Trace: tr, RTTSeconds: 0.08}
			for i := 0; i < b.N; i++ {
				referenceTraceLinkDownload(link, 8e6, start+float64(i%7))
			}
		})
	}
}
