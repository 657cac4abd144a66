package core

import (
	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/trace"
)

// This file provides hand-scripted oracle adversaries that exploit the same
// weaknesses the RL adversaries discover. They serve three purposes: they
// make the demonstrated weaknesses deterministic and unit-testable, they
// document in code *what* the learned adversaries converge to (§3.2's BB
// analysis, §4's BBR probing analysis), and they act as strong baselines the
// learned adversaries are compared against in the ablation benches.

// ScriptedABRAdversary chooses the next chunk's bandwidth from the streaming
// session state directly.
type ScriptedABRAdversary interface {
	Name() string
	// ChooseBandwidth returns the bandwidth (Mbps) for the next chunk.
	ChooseBandwidth(s *abr.Session, lastBw float64) float64
}

// BBBufferPinner exploits the weakness §3.2 demonstrates in the buffer-based
// protocol: BB "changes its rate when the buffer size is in the range of
// 10-15 seconds", so holding the client buffer inside that band forces BB to
// oscillate between bitrates, paying the smoothness and quality price, while
// a protocol that simply picked a steady low-to-middle rate would do well.
//
// The pinner is a proportional controller: it predicts the level BB will
// request at the current buffer occupancy and sets the bandwidth so the
// download consumes exactly enough buffer to land on the next set point. Two
// alternating set points inside BB's decision band make BB's linear
// buffer→level map flip between a low and a high level on every chunk.
type BBBufferPinner struct {
	BandLoS float64 // lower set point inside the decision band, default 10.8
	BandHiS float64 // upper set point, default 14.6
	MinMbps float64
	MaxMbps float64

	bb  *abr.BB         // model of the target used to predict its next request
	obs abr.Observation // the session's view, refilled every chunk
}

// NewBBBufferPinner returns a pinner for the paper's 0.8–4.8 Mbps range and
// BB's 10–15 s decision band.
func NewBBBufferPinner() *BBBufferPinner {
	return &BBBufferPinner{
		BandLoS: 10.8,
		BandHiS: 14.6,
		MinMbps: 0.8,
		MaxMbps: 4.8,
		bb:      abr.NewBB(),
	}
}

// Name implements ScriptedABRAdversary.
func (p *BBBufferPinner) Name() string { return "bb-buffer-pinner" }

// ChooseBandwidth implements ScriptedABRAdversary.
func (p *BBBufferPinner) ChooseBandwidth(s *abr.Session, _ float64) float64 {
	s.ObservationInto(&p.obs)
	target := p.BandLoS
	if s.NextChunk()%2 == 1 {
		target = p.BandHiS
	}
	// Until the buffer first reaches the band, just fill it quickly.
	if s.Buffer() < p.BandLoS-s.Video().ChunkSeconds {
		return p.MaxMbps
	}
	level := p.bb.SelectLevel(&p.obs)
	size := p.obs.NextSizesBits[level]
	// buffer' = buffer − download + chunkSeconds; aim buffer' = target.
	desiredDL := s.Buffer() + s.Video().ChunkSeconds - target
	rtt := 0.08
	if desiredDL <= rtt+1e-3 {
		return p.MaxMbps
	}
	bw := size / ((desiredDL - rtt) * 1e6)
	return mathx.Clamp(bw, p.MinMbps, p.MaxMbps)
}

// RunScriptedABR plays the adversary online against the target for one video
// and returns the finished session and the emitted trace.
func RunScriptedABR(video *abr.Video, target abr.Protocol, adv ScriptedABRAdversary, rttS float64, name string) (*abr.Session, *trace.Trace) {
	link := &abr.ConstantLink{BandwidthMbps: 1, RTTSeconds: rttS}
	session := abr.NewSession(video, link, abr.DefaultSessionConfig())
	target.Reset()
	tr := &trace.Trace{Name: name}
	lastBw := 0.0
	var obs abr.Observation
	for session.ObservationInto(&obs) {
		bw := adv.ChooseBandwidth(session, lastBw)
		lastBw = bw
		link.BandwidthMbps = bw
		tr.Points = append(tr.Points, trace.Point{
			Duration:      video.ChunkSeconds,
			BandwidthMbps: bw,
			LatencyMs:     rttS * 1000 / 2,
		})
		session.Step(target.SelectLevel(&obs))
	}
	return session, tr
}

// ScriptedCCAdversary chooses the next interval's link conditions from the
// adversary observation (utilization, queuing delay).
type ScriptedCCAdversary interface {
	Name() string
	Choose(utilization, queueDelayS float64) CCAction
}

// BBRProbeAttacker exploits BBR's "infrequent, but performance-critical
// probing" (§4): while BBR's bandwidth estimate is below the link capacity,
// utilization is low and the attacker keeps the link fast; once BBR's
// probing drives utilization up, the attacker crushes bandwidth (and raises
// latency, stretching BBR's round trips) until the max-filter forgets the
// high estimate, then restores a fast link that BBR no longer uses.
type BBRProbeAttacker struct {
	Cfg           CCAdversaryConfig
	UtilThreshold float64 // utilization above which to attack, default 0.8
	holdSteps     int     // hysteresis: intervals left in attack mode
	HoldIntervals int     // attack duration in intervals, default 40 (1.2 s)
}

// NewBBRProbeAttacker returns an attacker over the Table-1 action ranges.
func NewBBRProbeAttacker() *BBRProbeAttacker {
	return &BBRProbeAttacker{
		Cfg:           DefaultCCAdversaryConfig(),
		UtilThreshold: 0.8,
		HoldIntervals: 40,
	}
}

// Name implements ScriptedCCAdversary.
func (b *BBRProbeAttacker) Name() string { return "bbr-probe-attacker" }

// Choose implements ScriptedCCAdversary.
func (b *BBRProbeAttacker) Choose(utilization, _ float64) CCAction {
	if utilization > b.UtilThreshold {
		b.holdSteps = b.HoldIntervals
	}
	if b.holdSteps > 0 {
		b.holdSteps--
		return CCAction{
			BandwidthMbps: b.Cfg.BandwidthLo,
			LatencyMs:     b.Cfg.LatencyHiMs,
			LossRate:      0,
		}
	}
	return CCAction{
		BandwidthMbps: b.Cfg.BandwidthHi,
		LatencyMs:     b.Cfg.LatencyLoMs,
		LossRate:      0,
	}
}

// RunScriptedCC plays a scripted adversary against a fresh congestion
// controller for the given number of intervals and returns the per-interval
// records.
func RunScriptedCC(newCC func() netem.CongestionController, adv ScriptedCCAdversary, cfg CCAdversaryConfig, steps int, rng *mathx.RNG) []CCStepRecord {
	cfg.EpisodeSteps = steps
	env := NewCCEnv(newCC, cfg, rng)
	env.Reset()
	u, q := 0.0, 0.0
	for i := 0; i < steps; i++ {
		a := adv.Choose(u, q)
		// Encode the action back to the raw [-1,1] space the env expects.
		raw := []float64{
			encode(a.BandwidthMbps, cfg.BandwidthLo, cfg.BandwidthHi),
			encode(a.LatencyMs, cfg.LatencyLoMs, cfg.LatencyHiMs),
			encode(a.LossRate, cfg.LossLo, cfg.LossHi),
		}
		obs, _, done := env.Step(raw)
		u, q = obs[0], obs[1]*0.1
		if done {
			break
		}
	}
	return env.Records()
}

func encode(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return mathx.Clamp((v-lo)/(hi-lo)*2-1, -1, 1)
}
