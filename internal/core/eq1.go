package core

// Eq1 is one step's adversary reward split into the terms of the paper's
// Eq. 1, r_adversary = r_opt − r_protocol − p_smoothing, with the cost the
// adversary pays for its own action kept apart from the protocol's shortfall:
//
//   - Opt is what an oracle that knows the conditions achieves (r_opt);
//   - Protocol is what the target achieved under them (r_protocol);
//   - Cost is the adversary's own price, which no oracle concedes (the CC
//     family's random-loss rate; 0 elsewhere);
//   - Smooth is the weighted smoothing penalty p_smoothing.
//
// Every adversary environment builds one per step and returns Value() as its
// reward. Opt − Protocol is the regret; oracle dominance, the regret never
// being negative, is stated once for every environment family in
// TestEq1OracleDominates.
type Eq1 struct {
	Opt, Protocol, Cost, Smooth float64
}

// Value returns Opt − Protocol − Cost − Smooth, evaluated left to right, so
// each environment's reward keeps the bits of the expression it replaced
// (y − 0 == y, and −a − (−b) == b − a, exactly).
func (r Eq1) Value() float64 { return r.Opt - r.Protocol - r.Cost - r.Smooth }

// ABRGoal selects the video adversary's objective.
type ABRGoal int

const (
	// ABRGoalRegret is Eq. 1 (the default).
	ABRGoalRegret ABRGoal = iota
	// ABRGoalNaive is Eq. 1 with Opt zeroed: −r_protocol − p_smoothing.
	// §2.1 argues this degenerates into trivially hostile traces; the
	// AblationOptBaseline experiment measures it.
	ABRGoalNaive
)

// String returns the goal's name.
func (g ABRGoal) String() string {
	switch g {
	case ABRGoalRegret:
		return "regret"
	case ABRGoalNaive:
		return "naive"
	default:
		return "unknown"
	}
}
