package abr

import "math"

// MPC is the model-predictive-control ABR algorithm of Yin et al. [30]
// ("robust MPC" variant), re-implemented as in the paper's §3.1. At each
// chunk it predicts bandwidth as the harmonic mean of the last HistoryLen
// chunk throughputs, discounted by the maximum recent prediction error, then
// exhaustively searches all level sequences over the lookahead horizon for
// the one maximizing total linear QoE under the predicted bandwidth, and
// plays the first level of the best sequence.
type MPC struct {
	Horizon    int // lookahead chunks, default 5
	HistoryLen int // throughput samples for the harmonic mean, default 5
	QoE        QoEConfig

	// prediction-error tracking for the "robust" discount
	pastErrors []float64
	lastPred   float64
}

// NewMPC returns a robust MPC with the standard horizon-5 configuration.
func NewMPC() *MPC {
	return &MPC{Horizon: 5, HistoryLen: 5, QoE: DefaultQoE()}
}

// Name implements Protocol.
func (m *MPC) Name() string { return "mpc" }

// Reset implements Protocol.
func (m *MPC) Reset() {
	m.pastErrors = m.pastErrors[:0]
	m.lastPred = 0
}

// SelectLevel implements Protocol.
func (m *MPC) SelectLevel(o *Observation) int {
	// Update the robustness discount with the realized error of the
	// previous prediction.
	if m.lastPred > 0 && o.LastThroughput > 0 {
		err := math.Abs(m.lastPred-o.LastThroughput) / o.LastThroughput
		m.pastErrors = append(m.pastErrors, err)
		if len(m.pastErrors) > m.HistoryLen {
			// Slide the window down in place, so it never regrows.
			n := copy(m.pastErrors, m.pastErrors[1:])
			m.pastErrors = m.pastErrors[:n]
		}
	}
	pred := HarmonicMean(o.ThroughputHist, m.HistoryLen)
	if pred <= 0 {
		m.lastPred = 0
		return 0
	}
	maxErr := 0.0
	for _, e := range m.pastErrors {
		if e > maxErr {
			maxErr = e
		}
	}
	robust := pred / (1 + maxErr)
	// Track the raw harmonic-mean prediction, not the discounted one: the
	// next chunk's error must measure how wrong the *predictor* was.
	// Scoring the discounted value compounds the discount — a persistent
	// maxErr makes lastPred undershoot, which registers as fresh error,
	// which deepens the discount — so it never recovers even on a
	// perfectly steady link.
	m.lastPred = pred

	horizon := m.Horizon
	if rem := o.TotalChunks - o.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		// At or past the last chunk there is nothing to plan; search
		// would index an empty sequence.
		return 0
	}
	best, _ := m.search(o, robust, horizon)
	return best
}

// search exhaustively evaluates all level sequences of the given length and
// returns the first level of the best one along with its predicted QoE.
// Sizes beyond the next chunk are approximated by nominal bitrate (the
// protocol cannot know the exact VBR sizes of future chunks).
//
// It walks the sequences depth first, so sequences that share a prefix share
// its arithmetic: each level's buffer, running total and previous bitrate are
// computed once and carried down. The walk visits sequences in lexicographic
// order and adds each sequence's chunk QoEs left to right, as a from-scratch
// evaluation of every sequence would, so with the strict q > best tie rule
// it returns the same level and the same bits.
func (m *MPC) search(o *Observation, predMbps float64, horizon int) (int, float64) {
	prevMbps := 0.0
	first := o.LastLevel < 0
	if !first {
		prevMbps = o.BitratesKbps[o.LastLevel] / 1000
	}
	s := mpcSearch{m: m, o: o, bps: predMbps * 1e6, horizon: horizon, first: first, best: math.Inf(-1)}
	for level := 0; level < o.Levels; level++ {
		s.root = level
		s.walk(0, level, o.BufferS, 0, prevMbps)
	}
	return s.bestFirst, s.best
}

// mpcSearch is one search's state: its inputs, the first level of the
// sequence being walked, and the best sequence so far.
type mpcSearch struct {
	m         *MPC
	o         *Observation
	bps       float64 // predicted bandwidth, bits per second
	horizon   int
	first     bool // no chunk played yet: the first chunk pays no smoothness
	root      int
	bestFirst int
	best      float64
}

// walk plays level as chunk j of the sequence, after the prefix that left
// buffer, total and prev (Mbps), and then every continuation of it.
func (s *mpcSearch) walk(j, level int, buffer, total, prev float64) {
	o := s.o
	var sizeBits float64
	if j == 0 {
		sizeBits = o.NextSizesBits[level]
	} else {
		sizeBits = o.BitratesKbps[level] * 1000 * o.ChunkSeconds
	}
	dl := sizeBits / s.bps
	rebuf := dl - buffer
	if rebuf < 0 {
		rebuf = 0
	}
	buffer -= dl
	if buffer < 0 {
		buffer = 0
	}
	buffer += o.ChunkSeconds
	mbps := o.BitratesKbps[level] / 1000
	total += s.m.QoE.Chunk(mbps, prev, rebuf, s.first && j == 0)
	if j+1 == s.horizon {
		if total > s.best {
			s.best = total
			s.bestFirst = s.root
		}
		return
	}
	for next := 0; next < o.Levels; next++ {
		s.walk(j+1, next, buffer, total, mbps)
	}
}
