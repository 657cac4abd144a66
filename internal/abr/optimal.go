package abr

import (
	"math"
)

// WindowOptimal returns the maximum total QoE attainable over a short window
// of chunks whose per-chunk link bandwidths are known exactly. It is the
// r_opt oracle of the adversary's reward (Eq. 1): "the highest possible QoE
// over the last 4 network changes". The search is exhaustive over level
// sequences (levels^len(bwMbps) paths), exact for the window lengths the
// paper uses.
//
// startChunk indexes the first chunk of the window; startBuffer and prevLevel
// (-1 if no chunk has been played) give the client state entering the window.
func WindowOptimal(v *Video, qoe QoEConfig, startChunk int, bwMbps []float64, rttS, startBuffer, bufferCap float64, prevLevel int) float64 {
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
	// Every node of the search reads one of n·levels download times and the
	// levels' bitrates, so compute those once. The stack buffers hold the
	// paper's 4-chunk window over a 6-level ladder; append spills a larger
	// one to the heap.
	var dlBuf [32]float64
	var mbpsBuf [8]float64
	w := windowSearch{qoe: qoe, n: n, levels: v.Levels(), chunkS: v.ChunkSeconds, bufferCap: bufferCap,
		dl: dlBuf[:0], mbps: mbpsBuf[:0]}
	for j, bw := range bwMbps {
		for level := 0; level < w.levels; level++ {
			w.dl = append(w.dl, v.Size(level, startChunk+j)/(bw*1e6)+rttS)
		}
	}
	for level := 0; level < w.levels; level++ {
		w.mbps = append(w.mbps, v.BitrateMbps(level))
	}
	return w.best(0, startBuffer, prevLevel)
}

// windowSearch is WindowOptimal's exhaustive search over one window.
type windowSearch struct {
	qoe               QoEConfig
	n, levels         int
	chunkS, bufferCap float64
	dl                []float64 // dl[j·levels+level]: chunk j's download time at level
	mbps              []float64 // mbps[level]: the level's nominal bitrate
}

// best returns the highest QoE of chunks j..n-1 (j < n) entering chunk j
// with the given buffer after level prev (-1: nothing played yet). Ties keep
// the lowest level. The last chunk adds the empty remainder's 0 without a
// call.
func (w *windowSearch) best(j int, buffer float64, prev int) float64 {
	prevMbps := 0.0
	if prev >= 0 {
		prevMbps = w.mbps[prev]
	}
	best := math.Inf(-1)
	for level, dl := range w.dl[j*w.levels : (j+1)*w.levels] {
		rebuf := dl - buffer
		if rebuf < 0 {
			rebuf = 0
		}
		rest := 0.0
		if j+1 < w.n {
			nb := buffer - dl
			if nb < 0 {
				nb = 0
			}
			nb += w.chunkS
			if nb > w.bufferCap {
				nb = w.bufferCap
			}
			rest = w.best(j+1, nb, level)
		}
		q := w.qoe.Chunk(w.mbps[level], prevMbps, rebuf, prev < 0)
		q += rest
		if q > best {
			best = q
		}
	}
	return best
}

// OfflineOptimal computes (approximately) the best achievable level sequence
// for a whole video when the per-chunk bandwidth sequence is known in
// advance — the "Offline Optimum" reference of Figure 3. It runs dynamic
// programming over (chunk, last level, discretized buffer); the buffer grid
// resolution bounds the approximation error.
type OfflineOptimal struct {
	QoE        QoEConfig
	RTTSeconds float64
	BufferCapS float64
	// BufferResS is the buffer discretization in seconds (default 0.1).
	BufferResS float64
}

// NewOfflineOptimal returns an oracle with default settings.
func NewOfflineOptimal() *OfflineOptimal {
	return &OfflineOptimal{QoE: DefaultQoE(), BufferCapS: 60, BufferResS: 0.1}
}

// Solve returns the optimal level per chunk and the total QoE achieved,
// given the exact bandwidth (Mbps) in effect while each chunk downloads.
func (o *OfflineOptimal) Solve(v *Video, bwMbps []float64) ([]int, float64) {
	n := v.NumChunks()
	if len(bwMbps) < n {
		panic("abr: OfflineOptimal needs one bandwidth per chunk")
	}
	res := o.BufferResS
	if res <= 0 {
		res = 0.1
	}
	bufCap := o.BufferCapS
	if bufCap <= 0 {
		bufCap = 60
	}
	nBuf := int(bufCap/res) + 1
	levels := v.Levels()

	// value[prev+1][bufBin] = best QoE from the current chunk onward.
	// Iterate chunks backward.
	const neg = math.MaxFloat64
	value := make([][]float64, levels+1)
	next := make([][]float64, levels+1)
	choice := make([][][]int8, n) // [chunk][prev+1][bufBin]
	for p := 0; p <= levels; p++ {
		value[p] = make([]float64, nBuf)
		next[p] = make([]float64, nBuf)
	}
	for c := n - 1; c >= 0; c-- {
		choice[c] = make([][]int8, levels+1)
		for p := 0; p <= levels; p++ {
			choice[c][p] = make([]int8, nBuf)
			for b := 0; b < nBuf; b++ {
				buffer := float64(b) * res
				best := -neg
				bestL := 0
				prevMbps := 0.0
				if p > 0 {
					prevMbps = v.BitrateMbps(p - 1)
				}
				for l := 0; l < levels; l++ {
					size := v.Size(l, c)
					dl := size/(bwMbps[c]*1e6) + o.RTTSeconds
					rebuf := dl - buffer
					if rebuf < 0 {
						rebuf = 0
					}
					nb := buffer - dl
					if nb < 0 {
						nb = 0
					}
					nb += v.ChunkSeconds
					if nb > bufCap {
						nb = bufCap
					}
					q := o.QoE.Chunk(v.BitrateMbps(l), prevMbps, rebuf, p == 0)
					if c+1 < n {
						bin := int(nb / res)
						if bin >= nBuf {
							bin = nBuf - 1
						}
						q += value[l+1][bin]
					}
					if q > best {
						best = q
						bestL = l
					}
				}
				next[p][b] = best
				choice[c][p][b] = int8(bestL)
			}
		}
		value, next = next, value
	}

	// Reconstruct the optimal path from the initial state (empty buffer,
	// no previous chunk).
	levelsOut := make([]int, n)
	buffer := 0.0
	prev := 0 // encodes "no previous chunk"
	total := 0.0
	for c := 0; c < n; c++ {
		bin := int(buffer / res)
		if bin >= nBuf {
			bin = nBuf - 1
		}
		l := int(choice[c][prev][bin])
		levelsOut[c] = l
		size := v.Size(l, c)
		dl := size/(bwMbps[c]*1e6) + o.RTTSeconds
		rebuf := dl - buffer
		if rebuf < 0 {
			rebuf = 0
		}
		buffer -= dl
		if buffer < 0 {
			buffer = 0
		}
		buffer += v.ChunkSeconds
		if buffer > bufCap {
			buffer = bufCap
		}
		prevMbps := 0.0
		if prev > 0 {
			prevMbps = v.BitrateMbps(prev - 1)
		}
		total += o.QoE.Chunk(v.BitrateMbps(l), prevMbps, rebuf, prev == 0)
		prev = l + 1
	}
	return levelsOut, total
}
