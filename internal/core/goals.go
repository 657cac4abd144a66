package core

// The paper's Discussion (§5, "Different adversarial goals") proposes
// rewarding adversaries for specific misbehaviours instead of general
// suboptimality: "the congestion control adversary could be given a goal of
// finding conditions in which the protocol causes the highest amount of
// congestion. Likewise, an ABR adversary could be created with the specific
// goal of causing rebuffering or low bit-rate playback." This file defines
// those goals; the environments consult them when computing rewards.

// ABRGoal selects the video adversary's objective.
type ABRGoal int

const (
	// ABRGoalRegret is Eq. 1: r_opt − r_protocol − p_smoothing (default).
	ABRGoalRegret ABRGoal = iota
	// ABRGoalRebuffering rewards the protocol's stall seconds over the
	// window, minus p_smoothing.
	ABRGoalRebuffering
	// ABRGoalLowBitrate rewards the mean gap between the offered bandwidth
	// and the protocol's played bitrate (Mbps) over the window, minus
	// p_smoothing.
	ABRGoalLowBitrate
	// ABRGoalNaive is Eq. 1 without its r_opt term: −r_protocol −
	// p_smoothing. §2.1 argues this degenerates into trivially hostile
	// traces; the AblationOptBaseline experiment measures it.
	ABRGoalNaive
)

// String returns the goal's name.
func (g ABRGoal) String() string {
	switch g {
	case ABRGoalRegret:
		return "regret"
	case ABRGoalRebuffering:
		return "rebuffering"
	case ABRGoalLowBitrate:
		return "low-bitrate"
	case ABRGoalNaive:
		return "naive"
	default:
		return "unknown"
	}
}

// CCGoal selects the congestion-control adversary's objective.
type CCGoal int

const (
	// CCGoalUnderutilization is the paper's §4 reward: 1 − U − L − c·S.
	CCGoalUnderutilization CCGoal = iota
	// CCGoalCongestion rewards standing queues: the adversary searches for
	// conditions in which the protocol "causes the highest amount of
	// congestion" (normalized queuing delay in place of 1 − U).
	CCGoalCongestion
)

// String returns the goal's name.
func (g CCGoal) String() string {
	switch g {
	case CCGoalUnderutilization:
		return "underutilization"
	case CCGoalCongestion:
		return "congestion"
	default:
		return "unknown"
	}
}
