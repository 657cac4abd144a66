//go:build !race

package nn

// raceEnabled mirrors race.go for the uninstrumented build.
const raceEnabled = false
