//go:build race

package rl

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count tests skip under it: the detector's instrumentation can
// change what escapes, and the normal build is where the allocation counts
// are enforced.
const raceEnabled = true
