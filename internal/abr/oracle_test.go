package abr

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// windowOptimalClosure is WindowOptimal as it was before its download times
// and bitrates were hoisted out of the search: a recursive closure that
// recomputes both at every node. It stays as the oracle of
// TestWindowOptimalMatchesClosureOracle.
func windowOptimalClosure(v *Video, qoe QoEConfig, startChunk int, bwMbps []float64, rttS, startBuffer, bufferCap float64, prevLevel int) float64 {
	n := len(bwMbps)
	if n == 0 || startChunk >= v.NumChunks() {
		return 0
	}
	if startChunk+n > v.NumChunks() {
		n = v.NumChunks() - startChunk
		bwMbps = bwMbps[:n]
	}
	if bufferCap <= 0 {
		bufferCap = 60
	}
	var rec func(j int, buffer float64, prev int) float64
	rec = func(j int, buffer float64, prev int) float64 {
		if j == n {
			return 0
		}
		best := math.Inf(-1)
		for level := 0; level < v.Levels(); level++ {
			size := v.Size(level, startChunk+j)
			dl := size/(bwMbps[j]*1e6) + rttS
			rebuf := dl - buffer
			if rebuf < 0 {
				rebuf = 0
			}
			nb := buffer - dl
			if nb < 0 {
				nb = 0
			}
			nb += v.ChunkSeconds
			if nb > bufferCap {
				nb = bufferCap
			}
			prevMbps := 0.0
			if prev >= 0 {
				prevMbps = v.BitrateMbps(prev)
			}
			q := qoe.Chunk(v.BitrateMbps(level), prevMbps, rebuf, prev < 0)
			q += rec(j+1, nb, level)
			if q > best {
				best = q
			}
		}
		return best
	}
	return rec(0, startBuffer, prevLevel)
}

// TestWindowOptimalMatchesClosureOracle: the hoisted search returns the
// closure oracle's value bit for bit — over window lengths 1 to 6 (past the
// stack buffers), windows that run off the video's end, empty, partial and
// capped buffers, every previous level, and exact ties (a constant-bitrate
// video on equal bandwidths).
func TestWindowOptimalMatchesClosureOracle(t *testing.T) {
	rng := mathx.NewRNG(31)
	videos := []*Video{testVideo(0), testVideo(0.1), testVideo(0.3)}
	for trial := 0; trial < 400; trial++ {
		v := videos[trial%len(videos)]
		qoe := DefaultQoE()
		if trial%5 == 4 {
			qoe.SmoothPenalty, qoe.RebufferPenalty = 0, 1
		}
		bw := make([]float64, 1+trial%6)
		for i := range bw {
			bw[i] = rng.Uniform(0.2, 6)
			if trial%7 == 0 {
				bw[i] = 2
			}
		}
		start := int(rng.Uint64n(uint64(v.NumChunks() + 1)))
		buffer := rng.Uniform(0, 40)
		if trial%3 == 0 {
			buffer = 0
		}
		bufferCap := []float64{60, 10, 0}[trial%3]
		prev := int(rng.Uint64n(uint64(v.Levels()+1))) - 1
		rtt := rng.Uniform(0, 0.2)
		got := WindowOptimal(v, qoe, start, bw, rtt, buffer, bufferCap, prev)
		want := windowOptimalClosure(v, qoe, start, bw, rtt, buffer, bufferCap, prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (start %d, %d chunks, buffer %v, prev %d): WindowOptimal %v, closure oracle %v",
				trial, start, len(bw), buffer, prev, got, want)
		}
	}
}

// TestWindowOptimalAllocs pins 0 allocations per call on the paper's window.
func TestWindowOptimalAllocs(t *testing.T) {
	v := testVideo(0.1)
	bw := []float64{2, 1, 3, 2}
	q := DefaultQoE()
	if n := testing.AllocsPerRun(50, func() { WindowOptimal(v, q, 3, bw, 0.08, 12, 60, 2) }); n != 0 {
		t.Errorf("WindowOptimal: %v allocs per call, want 0", n)
	}
}
