package abr

import (
	"math"
	"testing"

	"advnet/internal/mathx"
)

// mpcObs builds a mid-session observation whose bandwidth history is hist
// (Mbps, oldest first).
func mpcObs(v *Video, chunk int, hist []float64) *Observation {
	o := &Observation{
		ChunkIndex:     chunk,
		TotalChunks:    v.NumChunks(),
		Levels:         v.Levels(),
		BitratesKbps:   v.BitratesKbps,
		ChunkSeconds:   v.ChunkSeconds,
		LastLevel:      0,
		BufferS:        8,
		NextSizesBits:  v.ChunkSizes(chunk % v.NumChunks()),
		ThroughputHist: hist,
	}
	if len(hist) > 0 {
		o.LastThroughput = hist[len(hist)-1]
	}
	return o
}

// TestMPCRobustDiscountRecovers: the robustness discount must be driven by
// the *predictor's* realized error, so after an initial bandwidth shock a
// perfectly steady link drives the error window back to zero and the discount
// back to 1. The historical bug scored each prediction against the already-
// discounted value, so any one-off error fed back into itself and the
// discount never recovered.
func TestMPCRobustDiscountRecovers(t *testing.T) {
	v := testVideo(0)
	m := NewMPC()
	m.Reset()

	// One slow chunk, then a long run at a constant 3 Mbps.
	hist := []float64{1}
	for chunk := 1; chunk < 15; chunk++ {
		m.SelectLevel(mpcObs(v, chunk, hist))
		hist = append(hist, 3)
	}

	// The last HistoryLen throughputs are all 3, so the harmonic mean —
	// and therefore lastPred — is 3 (to rounding), and the last
	// HistoryLen realized errors are ~0: the discount has recovered to
	// ~1. With the compounding bug, lastPred stays discounted below 3
	// and every windowed error stays ≳0.25 forever.
	if math.Abs(m.lastPred-3) > 1e-12 {
		t.Fatalf("lastPred = %v, want the raw harmonic mean 3", m.lastPred)
	}
	for i, e := range m.pastErrors {
		if e > 1e-12 {
			t.Fatalf("pastErrors[%d] = %v after a steady link; discount is compounding", i, e)
		}
	}
}

// TestMPCDiscountConvergesToRawPrediction: while errors are still in the
// window, lastPred must track the undiscounted harmonic mean, never the
// discounted value handed to the search.
func TestMPCDiscountConvergesToRawPrediction(t *testing.T) {
	v := testVideo(0)
	m := NewMPC()
	m.Reset()
	// First call seeds lastPred; the second realizes a large error
	// against it (predicted HM(1)=1, observed 3).
	m.SelectLevel(mpcObs(v, 2, []float64{1}))
	hist := []float64{1, 3, 3}
	m.SelectLevel(mpcObs(v, 3, hist))

	want := HarmonicMean(hist, m.HistoryLen)
	if math.Abs(m.lastPred-want) > 1e-12 {
		t.Fatalf("lastPred = %v, want raw prediction %v", m.lastPred, want)
	}
	if len(m.pastErrors) == 0 || m.pastErrors[len(m.pastErrors)-1] <= 0 {
		t.Fatal("expected a recorded positive prediction error")
	}
}

// TestMPCSelectLevelAtFinalChunk: calling SelectLevel when no chunks remain
// (horizon clamps to 0) must return the lowest level, not index an empty
// search sequence.
func TestMPCSelectLevelAtFinalChunk(t *testing.T) {
	v := testVideo(0)
	m := NewMPC()
	m.Reset()
	o := mpcObs(v, v.NumChunks(), []float64{3, 3, 3})
	o.ChunkIndex = v.NumChunks() // rem = 0
	if got := m.SelectLevel(o); got != 0 {
		t.Fatalf("SelectLevel at video end = %d, want 0", got)
	}
	// And one past the end (defensive: rem < 0).
	o.ChunkIndex = v.NumChunks() + 1
	if got := m.SelectLevel(o); got != 0 {
		t.Fatalf("SelectLevel past video end = %d, want 0", got)
	}
}

// searchOdometer is the exhaustive search MPC.search replaced, kept as its
// oracle: an odometer over every level sequence, each evaluated from the
// start by evalSequence.
func searchOdometer(m *MPC, o *Observation, predMbps float64, horizon int) (int, float64) {
	bestFirst := 0
	bestQoE := math.Inf(-1)
	prevMbps := 0.0
	first := o.LastLevel < 0
	if !first {
		prevMbps = o.BitratesKbps[o.LastLevel] / 1000
	}
	seq := make([]int, horizon)
	for {
		q := evalSequence(m, o, seq, predMbps, prevMbps, first)
		if q > bestQoE {
			bestQoE = q
			bestFirst = seq[0]
		}
		i := horizon - 1
		for ; i >= 0; i-- {
			seq[i]++
			if seq[i] < o.Levels {
				break
			}
			seq[i] = 0
		}
		if i < 0 {
			return bestFirst, bestQoE
		}
	}
}

// evalSequence is the predicted QoE of playing seq from o's state.
func evalSequence(m *MPC, o *Observation, seq []int, predMbps, prevMbps float64, first bool) float64 {
	buffer := o.BufferS
	total := 0.0
	prev := prevMbps
	for j, level := range seq {
		var sizeBits float64
		if j == 0 {
			sizeBits = o.NextSizesBits[level]
		} else {
			sizeBits = o.BitratesKbps[level] * 1000 * o.ChunkSeconds
		}
		dl := sizeBits / (predMbps * 1e6)
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
		total += m.QoE.Chunk(mbps, prev, rebuf, first && j == 0)
		prev = mbps
	}
	return total
}

// TestMPCSearchMatchesOdometer: the depth-first search returns the same
// level and the same QoE bits as the odometer on random observations —
// every horizon up to the default, every last level including none, empty
// to full buffers and predictions from starved to far above the ladder.
func TestMPCSearchMatchesOdometer(t *testing.T) {
	v := testVideo(0.1)
	m := NewMPC()
	rng := mathx.NewRNG(7)
	const cases = 20000
	for i := 0; i < cases; i++ {
		chunk := rng.Intn(v.NumChunks())
		o := mpcObs(v, chunk, nil)
		o.LastLevel = rng.Intn(v.Levels()+1) - 1
		o.BufferS = rng.Uniform(0, 30)
		pred := mathx.Exp(rng.Uniform(-3, 3))
		horizon := 1 + rng.Intn(m.Horizon)
		gotLevel, gotQoE := m.search(o, pred, horizon)
		wantLevel, wantQoE := searchOdometer(m, o, pred, horizon)
		if gotLevel != wantLevel || math.Float64bits(gotQoE) != math.Float64bits(wantQoE) {
			t.Fatalf("case %d (chunk %d, last %d, buffer %v, pred %v, horizon %d): search (%d, %v), odometer (%d, %v)",
				i, chunk, o.LastLevel, o.BufferS, pred, horizon, gotLevel, gotQoE, wantLevel, wantQoE)
		}
	}
}
