//go:build race

package nn

// raceEnabled reports whether the race detector instruments this build. Every
// forward then checks the cached weight transposes against the live weights
// (checkTransposes), and allocation-count tests skip: the detector's shadow
// bookkeeping reports allocations the normal build does not have.
const raceEnabled = true
